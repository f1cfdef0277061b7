package cards

// Traversal-offload chaos end-to-end: the list pointer chase runs over
// an R=2 replica group while each backend in turn is killed mid-run.
// Chases route to the highest-ranked in-sync member, so killing the
// member serving them mid-program must either promote the program to
// the next in-sync replica (counted on cards_chase_failovers_total) or
// degrade the traversal to per-hop epoch reads (counted on
// cards_chase_fallbacks_total) — and in every case the checksum must
// match the in-process reference exactly: a half-delivered path that
// leaked into the staging area would corrupt the traversal silently.

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/obs"
	"cards/internal/policy"
	"cards/internal/prefetch"
	"cards/internal/rdma"
	"cards/internal/remote"
	"cards/internal/replica"
	"cards/internal/workloads"
)

func TestChaseOffloadSurvivesBackendKillMidRun(t *testing.T) {
	const nBackends = 3
	build := func() (*ir.Module, error) {
		w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: 32768, Seed: 9})
		if err != nil {
			return nil, err
		}
		return w.Module, nil
	}
	run := func(store farmem.Store, reg *obs.Registry) *core.RunResult {
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
			Obs:             reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(nil, nil).MainResult

	var failoversSeen, fallbacksSeen uint64
	midRunKills := 0

	for victim := 0; victim < nBackends; victim++ {
		t.Run("victim"+string(rune('0'+victim)), func(t *testing.T) {
			before := runtime.NumGoroutine()

			srvs := make([]*remote.Server, nBackends)
			backends := make([]farmem.Store, nBackends)
			for i := range srvs {
				srvs[i] = remote.NewServer()
				addr, err := srvs[i].Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
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

			// A zero-timeout drain is an abrupt kill: connections are
			// force-closed with requests still in flight, so the kill can
			// cut chase programs mid-program rather than wait them out.
			killed := make(chan time.Time, 1)
			go func() {
				time.Sleep(10 * time.Millisecond)
				srvs[victim].Drain(0)
				killed <- time.Now()
			}()

			reg := obs.NewRegistry()
			res := run(rs, reg)
			runEnd := time.Now()
			killTime := <-killed
			if res.MainResult != want {
				t.Errorf("chase chaos checksum %#x != in-process %#x", res.MainResult, want)
			}

			// The runtime's published counters must mirror its final
			// tallies exactly — the "exact obs accounting" contract.
			snap := reg.Snapshot()
			st := res.Runtime
			for _, m := range []struct {
				name string
				want uint64
			}{
				{farmem.MetricChasesIssued, st.ChasesIssued},
				{farmem.MetricChaseHopsStaged, st.ChaseHopsStaged},
				{farmem.MetricChaseStagingHits, st.ChaseStagingHits},
				{farmem.MetricChaseStale, st.ChaseStale},
				{farmem.MetricChaseFallbacks, st.ChaseFallbacks},
			} {
				if got := snap.Counter(m.name); got != m.want {
					t.Errorf("%s = %d, runtime tally %d", m.name, got, m.want)
				}
			}

			midRun := killTime.Before(runEnd)
			if midRun {
				midRunKills++
			}
			failovers := rs.Obs().Snapshot().Counter(replica.MetricChaseFailovers)
			failoversSeen += failovers
			fallbacksSeen += st.ChaseFallbacks
			t.Logf("checksum %#x, mid-run=%v: %d chases, %d hops staged, %d hits, %d stale, %d fallbacks, %d chase failovers",
				res.MainResult, midRun, st.ChasesIssued, st.ChaseHopsStaged,
				st.ChaseStagingHits, st.ChaseStale, st.ChaseFallbacks, failovers)

			rs.Close()
			for _, srv := range srvs {
				srv.Close()
			}
			checkGoroutines(t, before)
		})
	}

	// A kill during the fill phase marks the victim out-of-sync off the
	// write path, after which the chase admission rule routes around it
	// silently — so a zero trace here is legitimate (the deterministic
	// mid-stream promotion is pinned by
	// TestChaseFailoverOnPrimaryKillMidStream below).
	t.Logf("across victims: %d mid-run kills, %d chase failovers, %d per-hop fallbacks",
		midRunKills, failoversSeen, fallbacksSeen)
}

// TestChaseFailoverOnPrimaryKillMidStream pins the mid-stream promotion
// deterministically: a replica pair holds a fully replicated chain, a
// chase is served by the start object's primary, the primary is killed
// abruptly, and the very next chase — still routed to the primary,
// which is in-sync and gated open because nothing else has failed —
// must error on the dead session, count one promotion on
// cards_chase_failovers_total, and complete on the surviving in-sync
// replica with a byte-identical path.
func TestChaseFailoverOnPrimaryKillMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	const (
		nObjs   = 64
		objSize = 64
		ds      = 1
	)

	srvs := make([]*remote.Server, 2)
	backends := make([]farmem.Store, 2)
	for i := range srvs {
		srvs[i] = remote.NewServer()
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
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

	// A fully replicated chain (R = N = 2, so both members hold every
	// object and the survivor can serve the whole path): object i links
	// to i+1 through a tagged far pointer at offset 8; the last object
	// carries an untagged terminal sentinel.
	images := make([][]byte, nObjs)
	for i := 0; i < nObjs; i++ {
		obj := make([]byte, objSize)
		for b := range obj {
			obj[b] = byte(i ^ b)
		}
		var next uint64 = 0xDEAD_BEEF
		if i < nObjs-1 {
			next = 1<<63 | uint64(ds)<<48 | uint64(i+1)*objSize
		}
		for b := 0; b < 8; b++ {
			obj[8+b] = byte(next >> (8 * b))
		}
		images[i] = obj
		if err := rs.WriteObj(ds, i, obj); err != nil {
			t.Fatalf("WriteObj(%d): %v", i, err)
		}
	}

	req := rdma.ChaseReq{DS: ds, Start: 0, ObjSize: objSize, NextOff: 8, Hops: 16}
	checkPath := func(res rdma.ChaseResult, when string) {
		t.Helper()
		if len(res.Hops) == 0 {
			t.Fatalf("%s: empty path", when)
		}
		for _, h := range res.Hops {
			if int(h.Idx) >= nObjs || !bytes.Equal(h.Data, images[h.Idx]) {
				t.Fatalf("%s: hop %d not byte-identical to the written image", when, h.Idx)
			}
		}
	}

	pre, err := rs.Chase(req)
	if err != nil {
		t.Fatalf("pre-kill chase: %v", err)
	}
	checkPath(pre, "pre-kill")

	// Kill the member that just served the chase — the start object's
	// primary — abruptly: the next program is still routed to it (it is
	// in-sync and its breaker is closed) and must fail over mid-stream.
	var gbuf [replica.MaxReplicas]int
	victim := rs.GroupOf(ds, 0, gbuf[:0])[0]
	srvs[victim].Drain(0)

	post, err := rs.Chase(req)
	if err != nil {
		t.Fatalf("post-kill chase: %v", err)
	}
	checkPath(post, "post-kill")
	if len(post.Hops) != len(pre.Hops) || post.Final != pre.Final || post.Status != pre.Status {
		t.Errorf("failover path differs: pre %d hops final %#x, post %d hops final %#x",
			len(pre.Hops), pre.Final, len(post.Hops), post.Final)
	}
	failovers := rs.Obs().Snapshot().Counter(replica.MetricChaseFailovers)
	if failovers == 0 {
		t.Error("cards_chase_failovers_total = 0: the dead primary's program was not promoted")
	}
	t.Logf("victim %d: %d hops re-served by the survivor, %d chase failovers", victim, len(post.Hops), failovers)

	rs.Close()
	for _, srv := range srvs {
		srv.Close()
	}
	checkGoroutines(t, before)
}

// TestReplicaChaseRefusesStripedStructure: with more backends than R, a
// structure left at the default stripe policy has each object on its
// own replica group, so the member serving a traversal program holds
// few of the successors and would zero-fill the rest — zeros the
// runtime then stages as object bytes. The replicated store must refuse
// such a program (as the sharded store always has), and the traversal
// must degrade to per-hop reads and still see every byte.
func TestReplicaChaseRefusesStripedStructure(t *testing.T) {
	before := runtime.NumGoroutine()
	const (
		nBackends = 4
		nObjs     = 64
		objSize   = 4096
	)
	srvs := make([]*remote.Server, nBackends)
	addrs := make([]string, nBackends)
	for i := range srvs {
		srvs[i] = remote.NewServer()
		var err error
		if addrs[i], err = srvs[i].Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
	}
	tier, err := replica.Dial(addrs, remote.PipelineOpts{Timeout: time.Second},
		replica.Options{Replicas: 2, BreakerThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	rs := tier.(*replica.Store)

	// A recursive single-successor structure over the replicated tier,
	// with the traversal-offload prefetcher and no SetPolicy: striped.
	r := farmem.New(farmem.Config{RemotableBudget: 8 * objSize, Store: rs})
	if _, err := r.RegisterDS(0, farmem.DSMeta{
		Name: "chain", ObjSize: objSize, ElemSize: objSize,
		Pattern: farmem.PatternPointerChase, Recursive: true, PtrOffsets: []int{0},
	}); err != nil {
		t.Fatal(err)
	}
	r.SetPlacement(0, farmem.PlaceRemotable)
	r.SetPrefetcher(0, prefetch.NewChase(8, nil))
	head, err := r.DSAlloc(0, nObjs*objSize)
	if err != nil {
		t.Fatal(err)
	}
	word := func(addr uint64, write bool, v uint64) uint64 {
		t.Helper()
		p, err := r.Guard(addr, write)
		if err != nil {
			t.Fatalf("guard %#x: %v", addr, err)
		}
		if write {
			r.WriteWord(p, v)
			return v
		}
		v, _ = r.ReadWord(p)
		return v
	}
	for i := 0; i < nObjs; i++ {
		obj := head + uint64(i*objSize)
		next := uint64(0xDEAD_BEEF) // untagged: end of chain
		if i < nObjs-1 {
			next = obj + objSize
		}
		word(obj, true, next)
		word(obj+8, true, uint64(1000+i))
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}

	if !rs.ChaseCapable() {
		t.Fatal("the fleet speaks the chase verbs; offload should be on offer")
	}
	if res, err := rs.Chase(rdma.ChaseReq{DS: 0, Start: 0, ObjSize: objSize, NextOff: 0, Hops: 8}); err == nil {
		t.Fatalf("a chase on a striped structure over %d backends with R=2 was served (%d hops): its successors live on other groups",
			nBackends, len(res.Hops))
	}

	visited := 0
	for cur := head; farmem.IsTagged(cur); cur = word(cur, false, 0) {
		if got, want := word(cur+8, false, 0), uint64(1000+visited); got != want {
			t.Fatalf("object %d of the chain holds %d, want %d", visited, got, want)
		}
		visited++
	}
	if visited != nObjs {
		t.Fatalf("the walk visited %d of %d objects", visited, nObjs)
	}
	st := r.Stats()
	if st.ChasesIssued == 0 || st.ChaseFallbacks != st.ChasesIssued || st.ChaseHopsStaged != 0 {
		t.Fatalf("%d chases issued, %d fell back, %d hops staged: every program should have been refused and the walk served per hop",
			st.ChasesIssued, st.ChaseFallbacks, st.ChaseHopsStaged)
	}

	r.Close()
	rs.Close()
	for _, srv := range srvs {
		srv.Close()
	}
	checkGoroutines(t, before)
}
