package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/policy"
	"cards/internal/remote"
	"cards/internal/shardmap"
	wl "cards/internal/workloads"
)

// The production far-tier settings: what cards.New and cardsc -remote
// use. No bench-only knobs (NoCompact, Compression "off") anywhere.
const (
	prodTimeout          = 2 * time.Second
	prodRetryMax         = 6
	prodBreakerThreshold = 8
)

// buildModule generates the compiled workload's program from the seed.
func buildModule(name string, seed int64, sz sizes) (*wl.Workload, error) {
	switch name {
	case wlBFS:
		return wl.BuildBFS(wl.BFSConfig{Vertices: sz.bfsVertices, Degree: 8, Trials: 3, Seed: seed}), nil
	case wlTaxi:
		return wl.BuildTaxi(wl.TaxiConfig{Trips: sz.taxiTrips, HotPasses: 6, Seed: seed}), nil
	case wlChase:
		return wl.BuildChase("list", wl.ChaseConfig{N: sz.chaseN, Seed: seed})
	}
	return nil, fmt.Errorf("%q is not a compiled workload", name)
}

// runAllLocal executes a fresh copy of the program with every structure
// pinned in local memory: no far tier, no eviction, no store.
func runAllLocal(name string, seed int64, sz sizes) (*core.RunResult, time.Duration, error) {
	w, err := buildModule(name, seed, sz)
	if err != nil {
		return nil, 0, err
	}
	c, err := core.Compile(w.Module, core.CompileOptions{})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := c.Run(core.RunConfig{
		Policy: policy.Linear, K: 100,
		PinnedBudget: 4*w.WorkingSetBytes + 1<<20, RemotableBudget: 1 << 20,
	})
	return res, time.Since(start), err
}

// chaseListChecksum is the closed form of the pointerchase program's
// result: list a holds i+seed, list b holds 3i, the program sums them
// element-wise over the first n-1 nodes and folds the sums with
// acc = acc*31 + v.
func chaseListChecksum(n, seed int64) uint64 {
	var acc uint64
	for i := int64(0); i < n-1; i++ {
		acc = acc*31 + uint64(i+seed) + uint64(3*i)
	}
	return acc
}

// oracle is the reference result of a compiled workload, computed
// without touching the tier under test.
type oracle struct {
	checksum        uint64
	localNsPerInstr float64
}

// compiledOracle computes the reference checksum from an all-local run
// of the same module. pointerchase is the exception: an all-local run
// allocates every list node from pinned memory, which costs minutes at
// this size, so the all-local run is made on a short list to validate
// the closed form, and the closed form gives the full-size reference.
func compiledOracle(name string, seed int64, sz sizes) (oracle, error) {
	small := sz
	if name == wlChase {
		small.chaseN = min(sz.chaseN, 2048)
	}
	res, wall, err := runAllLocal(name, seed, small)
	if err != nil {
		return oracle{}, fmt.Errorf("%s oracle: %w", name, err)
	}
	o := oracle{
		checksum:        res.MainResult,
		localNsPerInstr: ratio(float64(wall.Nanoseconds()), float64(res.Interp.Instructions)),
	}
	if name == wlChase {
		if want := chaseListChecksum(small.chaseN, seed); want != res.MainResult {
			return oracle{}, fmt.Errorf("pointerchase oracle: closed form %#x disagrees with the all-local run %#x", want, res.MainResult)
		}
		o.checksum = chaseListChecksum(sz.chaseN, seed)
	}
	return o, nil
}

// farStack is a dialed far tier: the store farmem talks to and what to
// close afterwards.
type farStack struct {
	store farmem.Store
	close func()
}

// dialStack builds the far tier the way cards.New and cardsc -remote
// do: one resilient pipelined client per cardsd, and a sharded store on
// top when there are several. reg and hub are nil on untraced runs.
func dialStack(addrs []string, reg *obs.Registry, hub *obs.TraceHub) (*farStack, error) {
	dcfg := remote.DialConfig{Timeout: prodTimeout, RetryMax: prodRetryMax, Obs: reg, Trace: hub}
	var clients []*remote.Resilient
	closeClients := func() {
		for _, c := range clients {
			c.Close()
		}
	}
	for i, addr := range addrs {
		scfg := dcfg
		if len(addrs) > 1 {
			scfg.Shard = strconv.Itoa(i)
		}
		c, err := remote.DialResilient(addr, scfg)
		if err == nil {
			if err = c.Ping(); err != nil {
				c.Close()
			}
		}
		if err != nil {
			closeClients()
			return nil, fmt.Errorf("far tier %s: %w", addr, err)
		}
		clients = append(clients, c)
	}
	if len(clients) == 1 {
		return &farStack{store: clients[0], close: closeClients}, nil
	}
	backends := make([]farmem.Store, len(clients))
	for i, c := range clients {
		backends[i] = c
	}
	ss, err := shardmap.NewSharded(backends, shardmap.Options{BreakerThreshold: prodBreakerThreshold, Obs: reg})
	if err != nil {
		closeClients()
		return nil, err
	}
	return &farStack{store: ss, close: func() { ss.Close() }}, nil
}

// runCompiled is one repetition of a compiler-model workload: build and
// compile the program, attach the production far tier, execute it with
// a quarter of its working set as local memory.
func runCompiled(e *repEnv) (*repResult, error) {
	if !e.spec.HaveExpect {
		return nil, fmt.Errorf("no oracle checksum supplied")
	}
	w, err := buildModule(e.spec.Workload, e.spec.Seed, e.sz)
	if err != nil {
		return nil, err
	}
	compileStart := time.Now()
	c, err := core.Compile(w.Module, core.CompileOptions{})
	if err != nil {
		return nil, err
	}
	compile := time.Since(compileStart)

	var (
		reg    *obs.Registry
		tracer *obs.Tracer
		hub    *obs.TraceHub
		log    *spanLog
	)
	if e.spec.Traced {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(0)
		hub = obs.NewTraceHub(tracer, obs.NewFlightRecorder(0, 0), 0)
		log = newSpanLog()
	}
	stack, err := dialStack(e.addrs(), reg, hub)
	if err != nil {
		return nil, err
	}
	defer stack.close()
	store := stack.store
	if e.spec.Traced {
		if store, err = wrapTraced(store, log); err != nil {
			return nil, err
		}
	}
	local := w.WorkingSetBytes / 4
	rc := core.RunConfig{
		Policy: policy.MaxUse, K: 0.5,
		PinnedBudget: local / 2, RemotableBudget: local / 2,
		Store: store, Obs: reg, Tracer: tracer, TraceHub: hub,
		RetryMax: prodRetryMax, BreakerThreshold: prodBreakerThreshold,
	}

	setup, err := e.begin()
	if err != nil {
		return nil, err
	}
	run, err := c.Run(rc)
	if err != nil {
		return nil, err
	}
	ops, failed := run.Runtime.GuardChecks, uint64(0)
	if run.MainResult != e.spec.Expect {
		// A wrong checksum voids every deref of the repetition.
		failed = ops
	}
	res, reg0, err := e.end(setup, ops, failed)
	if err != nil {
		return nil, err
	}

	m := res.Metrics
	// A compiled program's per-deref latency cannot be observed from
	// outside the interpreter; the repetition's mean stands in for both
	// percentiles, which therefore say no more than ops_per_s does.
	perOp := reg0.wall.Seconds() * 1e6 / float64(ops)
	m[mP50], m[mP99] = perOp, perOp
	m["core.compile_ms"] = float64(compile) / float64(time.Millisecond)
	m["guards.inserted"] = float64(c.Guards.GuardsInserted)
	m["guards.elided"] = float64(c.Guards.GuardsElided)
	m["interp.instr_per_deref"] = ratio(float64(run.Interp.Instructions), float64(ops))
	m.merge(countersOf(run).metrics(ops))
	if len(reg0.perServerWire) > 1 {
		lo, hi := reg0.perServerWire[0], reg0.perServerWire[0]
		for _, b := range reg0.perServerWire[1:] {
			lo, hi = min(lo, b), max(hi, b)
		}
		m["shardmap.byte_balance"] = ratio(float64(lo), float64(hi))
	}
	res.Checksum = run.MainResult
	res.ChasesIssued = run.Runtime.ChasesIssued
	res.StagedWriteBacks = run.Runtime.StagedWriteBacks
	if e.spec.Traced {
		m.merge(log.seamMetrics(reg0.wall))
		tm, _ := transportMetrics(reg.Snapshot(), nil)
		m.merge(tm)
		if err := log.writeChrome(e.spec.TraceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// farmemCounters are the runtime tallies the per-layer metrics derive
// from; compiled runs read them from core.RunResult, library runs from
// the runtime's metric snapshot.
type farmemCounters [numCounters]uint64

const (
	cGuardChecks = iota
	cFastPathHits
	cDerefCalls
	cRemoteFetches
	cEvictions
	cWriteBacks
	cWBStalls
	cWBReissues
	cChasesIssued
	cChaseHopsStaged
	cChaseStagingHits
	cChaseStale
	cChaseFallbacks
	cStoreRetries
	cPrefetchIssued
	cPrefetchHits
	numCounters
)

func countersOf(r *core.RunResult) farmemCounters {
	s := r.Runtime
	c := farmemCounters{
		cGuardChecks: s.GuardChecks, cFastPathHits: s.FastPathHits, cDerefCalls: s.DerefCalls,
		cRemoteFetches: s.RemoteFetches, cEvictions: s.Evictions,
		cWBStalls: s.WriteBackStalls, cWBReissues: s.WriteBackReissues,
		cChasesIssued: s.ChasesIssued, cChaseHopsStaged: s.ChaseHopsStaged,
		cChaseStagingHits: s.ChaseStagingHits, cChaseStale: s.ChaseStale,
		cChaseFallbacks: s.ChaseFallbacks, cStoreRetries: s.StoreRetries,
	}
	for _, d := range r.PerDS {
		c[cWriteBacks] += d.WriteBacks
		c[cPrefetchIssued] += d.PrefetchIssued
		c[cPrefetchHits] += d.PrefetchHits
	}
	return c
}

// snapshotCounters reads the same tallies from a runtime metric
// snapshot, summing the per-structure series.
func snapshotCounters(s *obs.Snapshot) farmemCounters {
	sumDS := func(name string) (n uint64) {
		for k, v := range s.Counters {
			if strings.HasPrefix(k, name+"{") {
				n += v
			}
		}
		return n
	}
	return farmemCounters{
		cGuardChecks: s.Counter(farmem.MetricGuardChecks), cFastPathHits: s.Counter(farmem.MetricFastPathHits),
		cDerefCalls: s.Counter(farmem.MetricDerefCalls), cRemoteFetches: s.Counter(farmem.MetricRemoteFetches),
		cEvictions: s.Counter(farmem.MetricEvictions), cWriteBacks: sumDS(farmem.MetricDSWriteBacks),
		cWBStalls: s.Counter(farmem.MetricWriteBackStalls), cWBReissues: s.Counter(farmem.MetricWriteBackReissues),
		cChasesIssued: s.Counter(farmem.MetricChasesIssued), cChaseHopsStaged: s.Counter(farmem.MetricChaseHopsStaged),
		cChaseStagingHits: s.Counter(farmem.MetricChaseStagingHits), cChaseStale: s.Counter(farmem.MetricChaseStale),
		cChaseFallbacks: s.Counter(farmem.MetricChaseFallbacks), cStoreRetries: s.Counter(farmem.MetricStoreRetries),
		cPrefetchIssued: sumDS(farmem.MetricDSPrefetchIssued), cPrefetchHits: sumDS(farmem.MetricDSPrefetchHits),
	}
}

// minus returns the tallies accumulated since an earlier reading.
func (c farmemCounters) minus(b farmemCounters) farmemCounters {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

func (c farmemCounters) metrics(ops uint64) metricMap {
	n := float64(ops)
	f := func(i int) float64 { return float64(c[i]) }
	return metricMap{
		"farmem.miss_share":              ratio(f(cRemoteFetches), f(cDerefCalls)),
		"farmem.fastpath_share":          ratio(f(cFastPathHits), f(cGuardChecks)),
		"farmem.evictions_per_op":        f(cEvictions) / n,
		"farmem.writebacks_per_op":       f(cWriteBacks) / n,
		"farmem.wb_stalls":               f(cWBStalls),
		"farmem.wb_reissues":             f(cWBReissues),
		"farmem.chases_issued":           f(cChasesIssued),
		"farmem.chase_staging_hit_share": ratio(f(cChaseStagingHits), f(cChaseHopsStaged)),
		"farmem.chase_stale":             f(cChaseStale),
		"farmem.chase_fallbacks":         f(cChaseFallbacks),
		"farmem.store_retries":           f(cStoreRetries),
		"prefetch.issued_per_op":         f(cPrefetchIssued) / n,
		"prefetch.hit_share":             ratio(f(cPrefetchHits), f(cPrefetchIssued)),
	}
}

// transportMetrics derives the traced repetition's transport numbers
// from the shared registry: the four-way latency attribution as means
// (histogram sum / count; the pow2 buckets are too coarse for
// percentiles), the client's doorbell batch sizes, and the summed
// attribution time of every remote op. before, when non-nil, is an
// earlier snapshot to subtract (set-up and warm-up).
func transportMetrics(after, before *obs.Snapshot) (m metricMap, attribTotalUS float64) {
	delta := func(match func(key string) bool) (sum, count float64) {
		for k, h := range after.Histograms {
			if !match(k) {
				continue
			}
			sum += float64(h.Sum)
			count += float64(h.Count)
			if before != nil {
				sum -= float64(before.Histograms[k].Sum)
				count -= float64(before.Histograms[k].Count)
			}
		}
		return sum, count
	}
	component := func(name string) func(string) bool {
		label := `component="` + name + `"`
		return func(k string) bool {
			return strings.HasPrefix(k, remote.MetricAttribUS+"{") && strings.Contains(k, label)
		}
	}
	exact := func(name string) func(string) bool {
		return func(k string) bool { return k == name }
	}
	mean := func(match func(string) bool) float64 { return ratio(delta(match)) }
	m = metricMap{
		"remote.client_queue_us":   mean(component(remote.AttribClientQueue)),
		"remote.wire_us":           mean(component(remote.AttribWire)),
		"cardsd.queue_us":          mean(component(remote.AttribServerQueue)),
		"cardsd.service_us":        mean(component(remote.AttribServerService)),
		"remote.batch_reads_mean":  mean(exact(remote.MetricClientBatchSize)),
		"remote.batch_writes_mean": mean(exact(remote.MetricClientWriteBatchSize)),
	}
	// attribTotalUS is the summed attribution time of every remote op in
	// the window; array-read turns it into the layer budget.
	for _, c := range []string{remote.AttribClientQueue, remote.AttribWire, remote.AttribServerQueue, remote.AttribServerService} {
		sum, _ := delta(component(c))
		attribTotalUS += sum
	}
	return m, attribTotalUS
}
