package shardmap

import (
	"errors"
	"reflect"
	"testing"

	"cards/internal/farmem"
	"cards/internal/rdma"
)

// chaseStore is a deadableStore that serves traversal programs itself:
// a program visits objects Start, Start+1, ... for its whole hop budget.
// IssueChase completes from another goroutine, as a pipelined client
// does.
type chaseStore struct {
	deadableStore
}

func (s *chaseStore) ChaseCapable() bool { return true }

func (s *chaseStore) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	if s.dead.Load() {
		return rdma.ChaseResult{}, errDown
	}
	res := rdma.ChaseResult{Status: rdma.ChaseHops, Final: uint64(req.Start + req.Hops)}
	for i := uint32(0); i < req.Hops; i++ {
		data := make([]byte, req.ObjSize)
		s.inner.ReadObj(int(req.DS), int(req.Start+i), data)
		res.Hops = append(res.Hops, rdma.ChaseHop{Idx: req.Start + i, Data: data})
	}
	return res, nil
}

func (s *chaseStore) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	go func() { done(s.Chase(req)) }()
}

// TestShardedChaseSyncMatchesIssue: a synchronous Chase and an IssueChase
// waited for are one route. Two identical fleets run the same script,
// one through each; every step must return the same path and the same
// error text, and the fleets must end with the same shard series.
func TestShardedChaseSyncMatchesIssue(t *testing.T) {
	const objSize = 64
	issue := func(ss *ShardedStore, req rdma.ChaseReq) (rdma.ChaseResult, error) {
		type out struct {
			res rdma.ChaseResult
			err error
		}
		ch := make(chan out, 1)
		ss.IssueChase(req, func(res rdma.ChaseResult, err error) { ch <- out{res, err} })
		o := <-ch
		return o.res, o.err
	}
	cases := []struct {
		name   string
		pinned bool
		kill   bool // kill the structure's owner before the script runs
		steps  int
	}{
		{name: "healthy pinned", pinned: true, steps: 3},
		{name: "tripped shard", pinned: true, kill: true, steps: 3}, // raw failure trips, then fail-fast
		{name: "striped", steps: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type run struct {
				res []rdma.ChaseResult
				err []error
				ss  *ShardedStore
			}
			drive := func(chase func(*ShardedStore, rdma.ChaseReq) (rdma.ChaseResult, error)) run {
				stores := make([]*chaseStore, 3)
				backends := make([]farmem.Store, 3)
				for i := range stores {
					stores[i] = &chaseStore{deadableStore{inner: farmem.NewMapStore()}}
					backends[i] = stores[i]
				}
				ss, err := NewSharded(backends, Options{BreakerThreshold: 1})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ss.Close() })
				if tc.pinned {
					ss.SetPolicy(1, PolicyPin)
				}
				for idx := 0; idx < 16; idx++ {
					obj := make([]byte, objSize)
					obj[0], obj[1] = byte(idx), 0xC5
					if err := ss.WriteObj(1, idx, obj); err != nil {
						t.Fatal(err)
					}
				}
				if tc.kill {
					stores[ss.ShardOf(1, 0)].dead.Store(true)
				}
				r := run{ss: ss}
				for step := 0; step < tc.steps; step++ {
					res, err := chase(ss, rdma.ChaseReq{DS: 1, Start: uint32(2 * step), ObjSize: objSize, Hops: 4})
					r.res, r.err = append(r.res, res), append(r.err, err)
				}
				return r
			}
			sync, async := drive((*ShardedStore).Chase), drive(issue)
			for i := range sync.err {
				se, ae := sync.err[i], async.err[i]
				if (se == nil) != (ae == nil) || (se != nil && se.Error() != ae.Error()) {
					t.Fatalf("step %d: Chase error %v, IssueChase error %v", i, se, ae)
				}
				if errors.Is(se, farmem.ErrDegraded) != errors.Is(ae, farmem.ErrDegraded) {
					t.Fatalf("step %d: ErrDegraded disagrees: %v vs %v", i, se, ae)
				}
				if !reflect.DeepEqual(sync.res[i], async.res[i]) {
					t.Fatalf("step %d: Chase path %+v, IssueChase path %+v", i, sync.res[i], async.res[i])
				}
			}
			ss, as := sync.ss.Obs().Snapshot(), async.ss.Obs().Snapshot()
			if !reflect.DeepEqual(ss.Counters, as.Counters) || !reflect.DeepEqual(ss.Gauges, as.Gauges) {
				t.Fatalf("shard series differ:\nChase:      %v %v\nIssueChase: %v %v", ss.Counters, ss.Gauges, as.Counters, as.Gauges)
			}
			// The script reached the states it is named for.
			last := sync.err[len(sync.err)-1]
			switch {
			case tc.kill && !errors.Is(last, farmem.ErrDegraded):
				t.Fatalf("tripped shard: last step %v, want ErrDegraded", last)
			case tc.pinned && !tc.kill && (last != nil || len(sync.res[0].Hops) != 4 || sync.res[0].Hops[1].Data[0] != 1):
				t.Fatalf("healthy pinned: path %+v, err %v", sync.res[0], last)
			case !tc.pinned && last == nil:
				t.Fatal("striped structure: chase was not refused")
			}
		})
	}
}
