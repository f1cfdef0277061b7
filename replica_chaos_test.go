package cards

// Replicated far-tier end-to-end tests: compiled workloads running over
// replica groups (R=2 of a 3-backend fleet) with one backend killed
// mid-run. The replica layer must hide the death completely — exact
// checksums, zero degraded operations — and the restarted backend must
// resync to the survivors' epochs before rejoining the read set.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/policy"
	"cards/internal/rdma"
	"cards/internal/remote"
	"cards/internal/replica"
	"cards/internal/workloads"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestReplicaKillAnyBackendMidRun is the headline chaos demo: BFS
// (striped flat pools) and the list pointer chase (pinned recursive
// structure) run over R=2 replica groups while each backend in turn is
// killed mid-run. Checksums must match the in-process reference
// exactly and no operation may surface as degraded: every object's
// group keeps a live replica, writes ack at W=1 on the survivor, and
// reads fail over to the highest-epoch surviving replica. After the
// run the dead backend is restarted on the same address; anti-entropy
// must bring every stale object up to the survivors' epochs before the
// member rejoins the read set.
// TestReplicaKillBackendRangeWriteback reruns the kill-a-backend chaos
// scenario with compiler-aided dirty-range write-back on: every group
// write ships only the modified extents (epoch-stamped WRITERANGE) to
// the replicas that speak the verb. Killing a backend mid-run leaves
// range writes in uncertain states; the sub-write failure marks the
// member divergent and anti-entropy repairs it with full objects, so
// the checksum must stay exact and the restarted victim must converge
// to the survivors' epochs — a replica can never be wedged by a splice
// it may or may not have applied.
func TestReplicaKillBackendRangeWriteback(t *testing.T) {
	const nBackends = 3
	before := runtime.NumGoroutine()
	build := func() (*ir.Module, error) {
		return workloads.BuildBFS(workloads.BFSConfig{
			Vertices: 512, Degree: 6, Trials: 2, Seed: 11}).Module, nil
	}
	run := func(store farmem.Store) *core.RunResult {
		m, err := build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(m, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(core.RunConfig{
			Policy:          policy.AllRemotable,
			PinnedBudget:    0,
			RemotableBudget: 8 * 4096,
			Store:           store,
			RetryMax:        8,
			RangeWriteback:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil).MainResult

	srvs := make([]*remote.Server, nBackends)
	addrs := make([]string, nBackends)
	backends := make([]farmem.Store, nBackends)
	for i := range srvs {
		srvs[i] = remote.NewServer()
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		c, err := remote.DialPipelined(addr, remote.PipelineOpts{
			Timeout:   250 * time.Millisecond,
			RetryMax:  1,
			RetryBase: time.Millisecond,
			RetryCap:  10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = c
	}
	rs, err := replica.New(backends, replica.Options{
		Replicas:         2,
		BreakerThreshold: 2,
		ProbeEvery:       20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill the victim from its own goroutine once the run has issued 500
	// of its ~2,300 range writes, so the kill lands mid-run however fast
	// the host is, and restart it only once the drain has returned.
	const victim = 0
	var once sync.Once
	drained := make(chan struct{})
	kill := func() {
		once.Do(func() {
			go func() {
				srvs[victim].Drain(20 * time.Millisecond)
				close(drained)
			}()
		})
	}
	res := run(&killAtRangeWrite{Store: rs, at: 500, kill: kill})
	kill() // a run with fewer range writes is killed after it
	<-drained
	if res.MainResult != want {
		t.Errorf("range-writeback replica checksum %#x != in-process %#x", res.MainResult, want)
	}
	if res.Runtime.RangeWriteBacks == 0 {
		t.Error("no range write-backs during the replicated run: the range path never engaged")
	}
	snap := rs.Obs().Snapshot()
	if qf := snap.Counter(replica.MetricReplicaQuorumFailures); qf != 0 {
		t.Errorf("%d write quorum failures during a single-backend kill", qf)
	}
	t.Logf("range chaos: %d range write-backs, %d bytes saved, %d range writes applied, %d failovers",
		res.Runtime.RangeWriteBacks, res.Runtime.RangeBytesSaved, rangeWritesApplied(srvs...),
		snap.Counter(replica.MetricReplicaFailovers))

	// Restart the victim with its (now stale) store; anti-entropy must
	// bring every shared object to the survivors' epochs — including
	// objects whose range writes died uncertain at the kill.
	srv2 := remote.NewServer()
	srv2.Store = srvs[victim].Store
	if _, err := srv2.Listen(addrs[victim]); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(t, 15*time.Second, func() bool {
		return rs.MemberInSync(victim) && rs.MemberState(victim) == farmem.BreakerClosed
	}) {
		t.Fatalf("victim never rejoined: state=%v inSync=%v",
			rs.MemberState(victim), rs.MemberInSync(victim))
	}
	var gbuf [replica.MaxReplicas]int
	checked := 0
	for other := 0; other < nBackends; other++ {
		if other == victim {
			continue
		}
		for _, k := range srvs[other].Store.Keys() {
			ds, idx := int(k[0]), int(k[1])
			group := rs.GroupOf(ds, idx, gbuf[:0])
			inGroup := false
			for _, gi := range group {
				inGroup = inGroup || gi == victim
			}
			if !inGroup {
				continue
			}
			if vEp, oEp := srv2.Store.Epoch(k[0], k[1]), srvs[other].Store.Epoch(k[0], k[1]); vEp != oEp {
				t.Errorf("obj (%d,%d): victim epoch %d != survivor epoch %d after resync", ds, idx, vEp, oEp)
			}
			checked++
		}
	}
	t.Logf("victim resynced: %d objects epoch-checked", checked)

	rs.Close()
	srv2.Close()
	for i, srv := range srvs {
		if i != victim {
			srv.Close()
		}
	}
	checkGoroutines(t, before)
}

// killAtRangeWrite is a replicated store that calls kill when the
// runtime issues its at-th range write.
type killAtRangeWrite struct {
	*replica.Store
	n, at int
	kill  func()
}

func (k *killAtRangeWrite) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	if k.n++; k.n == k.at {
		k.kill()
	}
	k.Store.IssueWriteRanges(ds, idx, src, exts, done)
}

func TestReplicaKillAnyBackendMidRun(t *testing.T) {
	const nBackends = 3
	cases := map[string]struct {
		killAfter time.Duration
		build     func() (*ir.Module, error)
	}{
		"bfs": {
			killAfter: 50 * time.Millisecond,
			build: func() (*ir.Module, error) {
				return workloads.BuildBFS(workloads.BFSConfig{
					Vertices: 512, Degree: 6, Trials: 2, Seed: 11}).Module, nil
			},
		},
		"pointer_chase": {
			killAfter: 10 * time.Millisecond,
			build: func() (*ir.Module, error) {
				w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: 16384, Seed: 9})
				if err != nil {
					return nil, err
				}
				return w.Module, nil
			},
		},
	}
	for name, tc := range cases {
		build, killAfter := tc.build, tc.killAfter
		t.Run(name, func(t *testing.T) {
			run := func(store farmem.Store) uint64 {
				m, err := build()
				if err != nil {
					t.Fatal(err)
				}
				c, err := core.Compile(m, core.CompileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Run(core.RunConfig{
					Policy:          policy.AllRemotable,
					PinnedBudget:    0,
					RemotableBudget: 8 * 4096,
					Store:           store,
					RetryMax:        8,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.MainResult
			}
			want := run(nil) // in-process reference checksum

			for victim := 0; victim < nBackends; victim++ {
				t.Run("victim"+string(rune('0'+victim)), func(t *testing.T) {
					before := runtime.NumGoroutine()

					srvs := make([]*remote.Server, nBackends)
					addrs := make([]string, nBackends)
					backends := make([]farmem.Store, nBackends)
					for i := range srvs {
						srvs[i] = remote.NewServer()
						addr, err := srvs[i].Listen("127.0.0.1:0")
						if err != nil {
							t.Fatal(err)
						}
						addrs[i] = addr
						c, err := remote.DialPipelined(addr, remote.PipelineOpts{
							Timeout:   250 * time.Millisecond,
							RetryMax:  1,
							RetryBase: time.Millisecond,
							RetryCap:  10 * time.Millisecond,
						})
						if err != nil {
							t.Fatal(err)
						}
						backends[i] = c
					}
					rs, err := replica.New(backends, replica.Options{
						Replicas:         2,
						BreakerThreshold: 2,
						ProbeEvery:       20 * time.Millisecond,
					})
					if err != nil {
						t.Fatal(err)
					}

					// Kill the victim shortly into the run. If the workload
					// finishes first the kill degenerates to a post-run
					// outage; the failover assertion below is skipped then.
					killed := make(chan time.Time, 1)
					go func() {
						time.Sleep(killAfter)
						srvs[victim].Drain(20 * time.Millisecond)
						killed <- time.Now()
					}()

					got := run(rs)
					runEnd := time.Now()
					killTime := <-killed
					if got != want {
						t.Errorf("replicated chaos checksum %#x != in-process %#x", got, want)
					}
					if name == "bfs" && rangeWritesApplied(srvs...) == 0 {
						t.Error("the servers applied no range write: no unread store-once object was spliced")
					}

					// Zero degraded operations: every write met its quorum and
					// every read found a live replica.
					snap := rs.Obs().Snapshot()
					if qf := snap.Counter(replica.MetricReplicaQuorumFailures); qf != 0 {
						t.Errorf("%d write quorum failures during a single-backend kill", qf)
					}
					midRun := killTime.Before(runEnd)
					failovers := snap.Counter(replica.MetricReplicaFailovers)
					if midRun && rs.MemberState(victim) == farmem.BreakerClosed && failovers == 0 {
						// The kill landed mid-run but left no trace: the victim
						// took no traffic afterwards — only plausible for a
						// pinned structure whose group excludes it.
						t.Logf("victim %d saw no post-kill traffic", victim)
					}
					t.Logf("checksum %#x, mid-run=%v, failovers=%d", got, midRun, failovers)

					// Restart the dead backend on the same address with the
					// same object store (stale epochs for everything written
					// after the kill). Anti-entropy must repair it to the
					// survivors' epochs before it rejoins the read set.
					srv2 := remote.NewServer()
					srv2.Store = srvs[victim].Store
					if _, err := srv2.Listen(addrs[victim]); err != nil {
						t.Fatal(err)
					}
					if !waitUntil(t, 15*time.Second, func() bool {
						return rs.MemberInSync(victim) &&
							rs.MemberState(victim) == farmem.BreakerClosed
					}) {
						t.Fatalf("victim %d never rejoined: state=%v inSync=%v",
							victim, rs.MemberState(victim), rs.MemberInSync(victim))
					}

					// Epoch agreement: every object whose group contains the
					// victim carries the same epoch on the victim as on the
					// survivor that took the writes.
					var gbuf [replica.MaxReplicas]int
					checkedObjs := 0
					for other := 0; other < nBackends; other++ {
						if other == victim {
							continue
						}
						for _, k := range srvs[other].Store.Keys() {
							ds, idx := int(k[0]), int(k[1])
							group := rs.GroupOf(ds, idx, gbuf[:0])
							inGroup := false
							for _, gi := range group {
								inGroup = inGroup || gi == victim
							}
							if !inGroup {
								continue
							}
							vEp := srv2.Store.Epoch(k[0], k[1])
							oEp := srvs[other].Store.Epoch(k[0], k[1])
							if vEp != oEp {
								t.Errorf("obj (%d,%d): victim epoch %d != survivor epoch %d after resync",
									ds, idx, vEp, oEp)
							}
							checkedObjs++
						}
					}
					if midRun && failovers > 0 && checkedObjs == 0 {
						t.Error("no shared objects found for the epoch check")
					}
					t.Logf("victim %d resynced: %d objects epoch-checked", victim, checkedObjs)

					rs.Close()
					srv2.Close()
					for i, srv := range srvs {
						if i != victim {
							srv.Close()
						}
					}
					checkGoroutines(t, before)
				})
			}
		})
	}
}
