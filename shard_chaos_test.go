package cards

// Sharded far-tier end-to-end tests: compiled workloads running across a
// 3-backend fleet with every backend behind its own chaos proxy, and the
// per-shard fault-domain demo — one server of three killed mid-run, its
// breaker opening independently while the survivors keep serving, then a
// restart that drains the dirty write-backs stranded by the outage.

import (
	"errors"
	"runtime"
	"strconv"
	"testing"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/ir"
	"cards/internal/obs"
	"cards/internal/policy"
	"cards/internal/remote"
	"cards/internal/replica"
	"cards/internal/shardmap"
	"cards/internal/workloads"
)

// TestChaosShardedWorkloads runs BFS (flat pools: striped placement) and
// the list pointer chase (recursive: pinned placement) over three
// backends, each reached through its own chaos proxy cutting
// connections and corrupting frames. The checksums must match the
// in-process runs exactly: per-shard transport retries absorb the
// faults, and placement routes every object back to the shard that owns
// it across all reconnects.
func TestChaosShardedWorkloads(t *testing.T) {
	const nShards = 3
	cases := map[string]struct {
		spec  string
		build func() (*ir.Module, error)
	}{
		"bfs": {
			spec: "cut=32768,corrupt=0.005",
			build: func() (*ir.Module, error) {
				return workloads.BuildBFS(workloads.BFSConfig{
					Vertices: 512, Degree: 6, Trials: 2, Seed: 11}).Module, nil
			},
		},
		"pointer_chase": {
			spec: "cut=16384,corrupt=0.005",
			build: func() (*ir.Module, error) {
				w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: 4096, Seed: 9})
				if err != nil {
					return nil, err
				}
				return w.Module, nil
			},
		},
	}
	for name, tc := range cases {
		build := tc.build
		spec := tc.spec
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()

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
					RetryMax:        8, // reissue uncertain write-backs
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.MainResult
			}
			want := run(nil) // in-process store: the reference checksum

			servers := make([]*remote.Server, nShards)
			proxies := make([]*faultnet.Proxy, nShards)
			backends := make([]farmem.Store, nShards)
			for i := 0; i < nShards; i++ {
				srv := remote.NewServer()
				addr, err := srv.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				servers[i] = srv
				fcfg, err := faultnet.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				fcfg.Seed = int64(7 + i) // distinct schedule per backend
				proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, fcfg)
				if err != nil {
					t.Fatal(err)
				}
				proxies[i] = proxy
				backends[i] = dialChaosPipelined(t, proxy.Addr())
			}
			reg := obs.NewRegistry()
			ss, err := shardmap.NewSharded(backends, shardmap.Options{Obs: reg})
			if err != nil {
				t.Fatal(err)
			}

			got := run(ss)
			if got != want {
				t.Errorf("sharded chaos checksum %#x != in-process %#x", got, want)
			}

			// Every backend took real faults and the fleet carried real
			// traffic: the run exercised fan-out, not a single shard.
			snap := reg.Snapshot()
			activeShards, cuts := 0, int64(0)
			for i := 0; i < nShards; i++ {
				lbl := strconv.Itoa(i)
				if snap.Counters[obs.Key(shardmap.MetricShardReads, "shard", lbl)]+
					snap.Counters[obs.Key(shardmap.MetricShardWrites, "shard", lbl)] > 0 {
					activeShards++
				}
				cuts += proxies[i].Cuts()
			}
			if name == "bfs" && activeShards < 2 {
				t.Errorf("striped workload used %d shards, want >= 2", activeShards)
			}
			if name == "bfs" && rangeWritesApplied(servers...) == 0 {
				t.Error("the servers applied no range write: no unread store-once object was spliced")
			}
			if cuts == 0 {
				t.Error("chaos proxies forced no disconnects: schedule too gentle")
			}
			t.Logf("%s: checksum %#x across %d active shards, %d forced disconnects",
				name, got, activeShards, cuts)

			ss.Close() // closes the pipelined clients (io.Closer backends)
			for i := 0; i < nShards; i++ {
				proxies[i].Close()
				servers[i].Close()
			}
			checkGoroutines(t, before)
		})
	}
}

// TestShardedServerOutageAndRecovery is the per-shard fault-domain demo
// on the public API: three cardsd backends via Config.RemoteAddrs, one
// killed mid-run. Only the dead shard's breaker may open — reads of
// objects it owns fail fast with ErrDegraded while every object on the
// surviving shards keeps serving exactly, and the global runtime breaker
// must stay closed (the outage is contained). Dirty writes made while
// degraded pin locally; restarting the server (same store) recovers the
// shard and drains them.
func TestShardedServerOutageAndRecovery(t *testing.T) {
	before := runtime.NumGoroutine()

	// A 2-object cache over a 32-object array.
	o := newShardedOutage(t, Config{RemotableMemory: 2 * 4096, RemoteRetries: 1}, 32)
	const (
		nShards     = 3
		elemsPerObj = outageElemsPerObj
		n           = 32 * elemsPerObj
	)
	rt, arr, srvs, addrs, ss := o.rt, o.arr, o.srvs, o.addrs, o.ss
	victimShard, victim, healthy := o.victimShard, o.victim, o.healthy
	var err error
	if len(victim) < 2 || len(healthy) < 2 {
		t.Fatalf("degenerate placement: %d victim objects, %d healthy", len(victim), len(healthy))
	}
	probeObj, dirtyObj := victim[0], victim[1]

	// Flush the tail of the fill (dirty residents) to the still-healthy
	// fleet, then make dirtyObj resident and clean so it can take a write
	// during the outage.
	if _, err := arr.Get(healthy[0] * elemsPerObj); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Get(healthy[1] * elemsPerObj); err != nil {
		t.Fatal(err)
	}
	if _, err := arr.Get(dirtyObj * elemsPerObj); err != nil {
		t.Fatal(err)
	}
	for i, srv := range srvs {
		if srv.Store.Len() == 0 {
			t.Fatalf("shard %d received no write-backs before the outage", i)
		}
	}

	// Kill one backend of three.
	srvs[victimShard].Drain(20 * time.Millisecond)

	// A write to the victim's resident object succeeds in local memory and
	// goes dirty — stranded until the shard comes back.
	dirtyElem := dirtyObj*elemsPerObj + 3
	if err := arr.Set(dirtyElem, 4242); err != nil {
		t.Fatalf("resident write during outage: %v", err)
	}

	// Remote derefs of victim-owned objects fail; once the shard breaker
	// opens they fail fast with ErrDegraded.
	var derr error
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, derr = arr.Get(probeObj * elemsPerObj); errors.Is(derr, farmem.ErrDegraded) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim-shard deref never degraded: %v", derr)
		}
	}

	// The fault domain is the shard: only the victim's breaker is open,
	// and the global runtime breaker never tripped.
	for i := 0; i < nShards; i++ {
		want := farmem.BreakerClosed
		if i == victimShard {
			want = farmem.BreakerOpen
		}
		if got := ss.ShardState(i); got != want {
			t.Errorf("shard %d breaker = %v, want %v", i, got, want)
		}
	}
	if trips := rt.rt.Stats().BreakerTrips; trips != 0 {
		t.Errorf("global breaker tripped %d times during a one-shard outage", trips)
	}

	// Every object on the surviving shards keeps serving, byte-exact.
	for _, o := range healthy {
		e := o * elemsPerObj
		v, err := arr.Get(e)
		if err != nil {
			t.Fatalf("survivor object %d during outage: %v", o, err)
		}
		if v != int64(1000+e) {
			t.Fatalf("survivor object %d element = %d, want %d", o, v, 1000+e)
		}
	}

	// Restart the dead backend on the same address with the same object
	// store. The shard prober notices, the next victim-shard deref closes
	// the circuit, and the runtime drains the stranded dirty write-back.
	srv2 := remote.NewServer()
	srv2.Store = srvs[victimShard].Store
	if _, err := srv2.Listen(addrs[victimShard]); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		if _, err = arr.Get(probeObj * elemsPerObj); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after shard restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := ss.ShardState(victimShard); got != farmem.BreakerClosed {
		t.Errorf("victim shard breaker = %v after recovery, want closed", got)
	}
	if drained := rt.rt.Stats().DrainedWriteBacks; drained == 0 {
		t.Error("DrainedWriteBacks = 0: the stranded dirty object was not flushed on recovery")
	}

	// Per-shard counters tell the same story on the obs registry.
	snap := ss.Obs().Snapshot()
	lbl := strconv.Itoa(victimShard)
	if got := snap.Counters[obs.Key(shardmap.MetricShardTrips, "shard", lbl)]; got == 0 {
		t.Error("victim shard recorded no breaker trips")
	}
	if got := snap.Counters[obs.Key(shardmap.MetricShardRecoveries, "shard", lbl)]; got == 0 {
		t.Error("victim shard recorded no breaker recoveries")
	}

	// Full scan: the entire working set survived the outage, including
	// the write made while the shard was down.
	for i := 0; i < n; i++ {
		want := int64(1000 + i)
		if i == dirtyElem {
			want = 4242
		}
		v, err := arr.Get(i)
		if err != nil {
			t.Fatalf("post-recovery Get(%d): %v", i, err)
		}
		if v != want {
			t.Fatalf("post-recovery element %d = %d, want %d", i, v, want)
		}
	}

	rt.Close()
	srv2.Close()
	for i, srv := range srvs {
		if i != victimShard {
			srv.Close()
		}
	}
	checkGoroutines(t, before)
}

// TestReplicaKillRestartSequenceUnderCorruption drives the replicated
// far tier through a staged double failure while every connection
// corrupts 1% of its frames: kill the primary of object 0's group,
// prove failover keeps serving and writes still meet quorum on the
// backup; then kill the backup too, prove writes to the dead group park
// as a contained degraded condition; then restart both and prove the
// parked write-back drains, anti-entropy reconverges the epochs, and
// every value — including those written between the kills — survives
// byte-exact.
func TestReplicaKillRestartSequenceUnderCorruption(t *testing.T) {
	before := runtime.NumGoroutine()

	const (
		nBackends = 3
		objs      = 32
		objSize   = 4096
	)
	srvs := make([]*remote.Server, nBackends)
	addrs := make([]string, nBackends)
	proxies := make([]*faultnet.Proxy, nBackends)
	backends := make([]farmem.Store, nBackends)
	dial := func(i int) *remote.PipelinedClient {
		c, err := remote.DialPipelined(proxies[i].Addr(), remote.PipelineOpts{
			Timeout:   300 * time.Millisecond,
			RetryMax:  8,
			RetryBase: time.Millisecond,
			RetryCap:  20 * time.Millisecond,
			Window:    8,
			MaxBatch:  2,
		})
		if err != nil {
			t.Fatalf("backend %d: dial through the corrupting proxy: %v", i, err)
		}
		return c
	}
	for i := range srvs {
		srvs[i] = remote.NewServer()
		addr, err := srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = addr
		fcfg, err := faultnet.ParseSpec("corrupt=0.01")
		if err != nil {
			t.Fatal(err)
		}
		fcfg.Seed = int64(31 + i)
		proxies[i], err = faultnet.NewProxy("127.0.0.1:0", addr, fcfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = dial(i)
	}
	rs, err := replica.New(backends, replica.Options{
		Replicas:         2,
		BreakerThreshold: 3,
		ProbeEvery:       20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := farmem.New(farmem.Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: 4 * objSize,
		WriteBackBudget: 8 * objSize,
		Store:           rs,
		RetryMax:        8,
	})
	if _, err := r.RegisterDS(0, farmem.DSMeta{Name: "seq", ObjSize: objSize, ElemSize: 8}); err != nil {
		t.Fatal(err)
	}
	if err := r.SetPlacement(0, farmem.PlaceRemotable); err != nil {
		t.Fatal(err)
	}
	base, err := r.DSAlloc(0, objs*objSize)
	if err != nil {
		t.Fatal(err)
	}
	writeW := func(idx int, v uint64) error {
		p, err := r.Guard(base+uint64(idx)*objSize, true)
		if err != nil {
			return err
		}
		return r.WriteWord(p, v)
	}
	readW := func(idx int) (uint64, error) {
		p, err := r.Guard(base+uint64(idx)*objSize, false)
		if err != nil {
			return 0, err
		}
		return r.ReadWord(p)
	}
	// Under corruption a member's breaker can trip transiently (one
	// connection cut fails a whole pipeline window at once), so a read
	// can surface ErrDegraded for a probe interval even though a live
	// in-sync replica exists. That is the documented contract — degraded
	// is retryable-later — so the test retries exactly the way a real
	// caller would.
	readRetry := func(idx int) uint64 {
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, err := readW(idx)
			if err == nil {
				return v
			}
			if !errors.Is(err, farmem.ErrDegraded) || time.Now().After(deadline) {
				t.Fatalf("read %d: %v", idx, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	drainRetry := func() {
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := r.DrainWriteBacks()
			if err == nil && r.StagedWriteBackEntries() == 0 {
				return
			}
			if err != nil && !errors.Is(err, farmem.ErrDegraded) {
				t.Fatalf("drain: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("drain never converged: err=%v staged=%d", err, r.StagedWriteBackEntries())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	want := make([]uint64, objs)
	for i := 0; i < objs; i++ {
		want[i] = uint64(1000 + i)
		if err := writeW(i, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}

	// Corruption can leave a fill sub-write uncertain on one member (the
	// write still acks at W=1 on the other), so wait for anti-entropy to
	// reconverge the fleet before staging the kills — otherwise the only
	// current copy of an object may sit on the member about to die, and
	// refusing to serve the stale survivor would be correct but would
	// not be the scenario this test stages.
	if !waitUntil(t, 30*time.Second, func() bool {
		for i := 0; i < nBackends; i++ {
			if !rs.MemberInSync(i) || rs.MemberState(i) != farmem.BreakerClosed {
				return false
			}
		}
		return true
	}) {
		t.Fatal("fleet never fully in sync after the fill")
	}

	var gbuf [replica.MaxReplicas]int
	group := rs.GroupOf(0, 0, gbuf[:0])
	primary, backup := group[0], group[1]

	// Stage 1: kill the primary. Every object keeps reading exactly
	// (objects it led fail over to their backup), and a write to the
	// half-dead group still meets W=1 on the backup.
	srvs[primary].Drain(20 * time.Millisecond)
	for i := 0; i < objs; i++ {
		if v := readRetry(i); v != want[i] {
			t.Fatalf("read %d = %d with primary dead, want %d", i, v, want[i])
		}
	}
	want[0] = 2000
	if err := writeW(0, want[0]); err != nil {
		t.Fatalf("write during primary outage: %v", err)
	}
	drainRetry()

	// Stage 2: kill the backup too — object 0's whole group is dead.
	// The resident copy still takes the write. Evicting it (by touching
	// objects the third, still-alive backend serves) forces the
	// write-back at the dead group: the failed sub-writes drive the
	// backup's breaker open and the entry parks as a contained degraded
	// condition instead of erroring the program.
	srvs[backup].Drain(20 * time.Millisecond)
	want[0] = 3000
	if err := writeW(0, want[0]); err != nil {
		t.Fatalf("resident write with whole group dead: %v", err)
	}
	third := 3 - primary - backup
	var evictors []int
	for i := 1; i < objs && len(evictors) < 8; i++ {
		g := rs.GroupOf(0, i, gbuf[:0])
		if g[0] == third || g[1] == third {
			evictors = append(evictors, i)
		}
	}
	stranded := false
	deadline := time.Now().Add(10 * time.Second)
	for !stranded {
		if time.Now().After(deadline) {
			t.Fatalf("object 0 never stranded: backup state=%v staged=%d",
				rs.MemberState(backup), r.StagedWriteBackEntries())
		}
		for _, i := range evictors {
			if v := readRetry(i); v != want[i] {
				t.Fatalf("read %d = %d during double outage, want %d", i, v, want[i])
			}
		}
		if err := r.DrainWriteBacks(); err != nil && !errors.Is(err, farmem.ErrDegraded) {
			t.Fatalf("drain with whole group dead: %v", err)
		}
		stranded = rs.Stranded(0, 0) && r.StagedWriteBackEntries() > 0
		time.Sleep(5 * time.Millisecond)
	}

	// Stage 3: restart both servers (same stores, same addresses). The
	// members resync and rejoin, the parked write-back drains, and the
	// full data set — including both outage writes — reads back exact.
	restarted := make([]*remote.Server, 0, 2)
	for _, i := range []int{primary, backup} {
		srv2 := remote.NewServer()
		srv2.Store = srvs[i].Store
		if _, err := srv2.Listen(addrs[i]); err != nil {
			t.Fatal(err)
		}
		restarted = append(restarted, srv2)
	}
	if !waitUntil(t, 30*time.Second, func() bool {
		return rs.MemberState(primary) == farmem.BreakerClosed &&
			rs.MemberState(backup) == farmem.BreakerClosed
	}) {
		t.Fatalf("breakers never closed after restart: primary=%v backup=%v",
			rs.MemberState(primary), rs.MemberState(backup))
	}
	// The parked write-back drains once the recovery epoch advanced;
	// only then can the sweeps finish without skips (the authority epoch
	// for object 0 exists nowhere until the drain re-fans it).
	drainRetry()
	if !waitUntil(t, 30*time.Second, func() bool {
		for i := 0; i < nBackends; i++ {
			if !rs.MemberInSync(i) {
				return false
			}
		}
		return true
	}) {
		t.Fatalf("members never rejoined: insync primary=%v backup=%v third=%v",
			rs.MemberInSync(primary), rs.MemberInSync(backup), rs.MemberInSync(third))
	}
	for i := 0; i < objs; i++ {
		if v := readRetry(i); v != want[i] {
			t.Fatalf("post-recovery read %d = %d, want %d", i, v, want[i])
		}
	}

	// Epoch agreement across every object's group: the restarted members
	// converged to the surviving member's epochs.
	stores := make([]*remote.ObjectStore, nBackends)
	for i := range stores {
		stores[i] = srvs[i].Store
	}
	for i := 0; i < objs; i++ {
		g := rs.GroupOf(0, i, gbuf[:0])
		e0 := stores[g[0]].Epoch(0, uint32(i))
		e1 := stores[g[1]].Epoch(0, uint32(i))
		if e0 != e1 || e0 == 0 {
			t.Errorf("object %d: group [%d %d] epochs %d vs %d after recovery (primary=%d backup=%d)",
				i, g[0], g[1], e0, e1, primary, backup)
		}
	}

	r.Close()
	rs.Close()
	for _, srv := range restarted {
		srv.Close()
	}
	for i, srv := range srvs {
		if i != primary && i != backup {
			srv.Close()
		}
	}
	for _, p := range proxies {
		p.Close()
	}
	checkGoroutines(t, before)
}

// shardedOutage is three cardsd backends behind New, an Array of objs
// 4 KiB objects holding 1000+i, and the array's objects split by owner
// around the victim: the shard owning object 0. The array stripes (a
// flat pool), so every shard owns some of its objects. BreakerThreshold
// arms the per-shard breakers; the runtime arms none over a fleet.
type shardedOutage struct {
	rt              *Runtime
	arr             *Array[int64]
	srvs            []*remote.Server
	addrs           []string
	ss              *shardmap.ShardedStore
	victimShard     int
	victim, healthy []int
}

const outageElemsPerObj = 512 // 512 int64s = one 4 KiB object

func newShardedOutage(t *testing.T, cfg Config, objs int) *shardedOutage {
	t.Helper()
	o := &shardedOutage{srvs: make([]*remote.Server, 3)}
	for i := range o.srvs {
		o.srvs[i] = remote.NewServer()
		addr, err := o.srvs[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		o.addrs = append(o.addrs, addr)
	}
	cfg.RemoteAddrs = o.addrs
	cfg.PinnedMemory = 1 << 20
	cfg.RemoteTimeout = 250 * time.Millisecond
	cfg.BreakerThreshold = 4
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o.rt = rt
	if o.arr, err = NewArray[int64](rt, "demo", objs*outageElemsPerObj, Remotable); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objs*outageElemsPerObj; i++ {
		if err := o.arr.Set(i, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	o.ss = rt.tier.(*shardmap.ShardedStore)
	o.victimShard = o.ss.ShardOf(0, 0)
	for obj := 0; obj < objs; obj++ {
		if o.ss.ShardOf(0, obj) == o.victimShard {
			o.victim = append(o.victim, obj)
		} else {
			o.healthy = append(o.healthy, obj)
		}
	}
	return o
}

// checkContained asserts that the runtime's breaker never counted the
// victim's failures and that every object on the surviving shards reads
// back exactly.
func (o *shardedOutage) checkContained(t *testing.T) {
	t.Helper()
	if trips := o.rt.rt.Stats().BreakerTrips; trips != 0 {
		t.Errorf("runtime breaker tripped %d times during a one-shard outage", trips)
	}
	if st := o.rt.rt.BreakerState(); st != farmem.BreakerClosed {
		t.Errorf("runtime breaker %v during a one-shard outage, want closed", st)
	}
	failed := 0
	for _, obj := range o.healthy {
		for e := obj * outageElemsPerObj; e < (obj+1)*outageElemsPerObj; e++ {
			v, err := o.arr.Get(e)
			if err != nil {
				failed++
				break
			}
			if v != int64(1000+e) {
				t.Fatalf("healthy object %d element %d = %d, want %d", obj, e, v, 1000+e)
			}
		}
	}
	if failed > 0 {
		t.Errorf("%d of %d healthy-shard objects failed during a one-shard outage", failed, len(o.healthy))
	}
}

// close closes the runtime, then the surviving backends, and returns
// the runtime's Close error.
func (o *shardedOutage) close() error {
	err := o.rt.Close()
	for i, srv := range o.srvs {
		if i != o.victimShard {
			srv.Close()
		}
	}
	return err
}

// TestShardedOutageWithoutRetriesStaysContained: with no retries at
// either layer, each deref of a dead shard's object is one failure, and
// only that shard's breaker may count it. A runtime breaker counting
// the same failures would trip with the shard's and fail the healthy
// shards' objects with ErrDegraded.
func TestShardedOutageWithoutRetriesStaysContained(t *testing.T) {
	before := runtime.NumGoroutine()
	o := newShardedOutage(t, Config{RemotableMemory: 2 * 4096, RemoteRetries: -1}, 32)
	// Evict the tail of the fill to the healthy fleet, so the victim's
	// object is remote.
	for _, obj := range o.healthy[:2] {
		if _, err := o.arr.Get(obj * outageElemsPerObj); err != nil {
			t.Fatal(err)
		}
	}
	o.srvs[o.victimShard].Drain(20 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, err := o.arr.Get(o.victim[0] * outageElemsPerObj); err == nil {
			t.Fatal("deref of a dead shard's remote object succeeded")
		}
	}
	o.checkContained(t)
	o.close()
	checkGoroutines(t, before)
}

// TestShardedOutageDirtyWriteBacksStayContained: the cache holds 16
// dirty objects of the shard that dies, so the healthy reads that follow
// evict them into failed asynchronous write-backs, one after another.
// Each parks on its shard; none may count against a runtime-wide
// breaker, and every healthy object keeps serving.
func TestShardedOutageDirtyWriteBacksStayContained(t *testing.T) {
	before := runtime.NumGoroutine()
	o := newDirtyOutage(t)
	// Settle each write-back: every one fails on the dead shard and parks.
	if err := o.rt.rt.DrainWriteBacks(); err == nil {
		t.Fatal("write-backs to a dead shard all landed")
	}
	o.checkContained(t)
	o.close()
	checkGoroutines(t, before)
}

// TestCloseReportsLostWriteBacks: Close settles what it can of the
// write-backs parked on a dead shard, and the ones it cannot land are
// lost with the runtime, so Close must fail, naming the outage, instead
// of returning nil.
func TestCloseReportsLostWriteBacks(t *testing.T) {
	before := runtime.NumGoroutine()
	o := newDirtyOutage(t)
	if err := o.close(); !errors.Is(err, farmem.ErrDegraded) {
		t.Fatalf("Close with write-backs parked on a dead shard returned %v, want an error wrapping ErrDegraded", err)
	}
	if o.rt.rt.StagedWriteBackEntries() == 0 {
		t.Fatal("Close failed but no write-back stayed parked")
	}
	checkGoroutines(t, before)
}

// newDirtyOutage is a shardedOutage of 128 objects whose 32-object cache
// holds 16 dirty objects of the victim when it dies; a scan of the
// healthy objects then evicts them into write-backs to the dead shard.
func newDirtyOutage(t *testing.T) *shardedOutage {
	t.Helper()
	o := newShardedOutage(t, Config{RemotableMemory: 32 * 4096, RemoteRetries: 1}, 128)
	if len(o.victim) < 16 {
		t.Fatalf("degenerate placement: %d victim objects", len(o.victim))
	}
	for _, obj := range o.victim[:16] {
		if err := o.arr.Set(obj*outageElemsPerObj+1, -1); err != nil {
			t.Fatal(err)
		}
	}
	o.srvs[o.victimShard].Drain(20 * time.Millisecond)
	for _, obj := range o.healthy {
		if _, err := o.arr.Get(obj * outageElemsPerObj); err != nil {
			t.Fatalf("healthy object %d: %v", obj, err)
		}
	}
	return o
}
