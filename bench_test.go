// Benchmarks regenerating the paper's evaluation artifacts. One
// benchmark per table/figure (BenchmarkTable1, BenchmarkFig4 …
// BenchmarkFig9) reruns the full experiment and reports its headline
// comparison as a custom metric, so `go test -bench=.` reproduces the
// whole evaluation. The BenchmarkGuard* group additionally measures the
// real wall-clock cost of the runtime primitives behind Table 1.
package cards

import (
	"fmt"
	"testing"
	"time"

	"cards/internal/bench"
	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/interp"
	"cards/internal/ir"
	"cards/internal/netsim"
	"cards/internal/obs"
	"cards/internal/policy"
	"cards/internal/prefetch"
	"cards/internal/rdma"
	"cards/internal/remote"
	"cards/internal/stats"
	"cards/internal/workloads"
)

// ---- Real-time primitive costs (the substance behind Table 1). ----

func newBenchRuntime(trackFM bool) (*farmem.Runtime, uint64) {
	rt := farmem.New(farmem.Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: 1 << 22,
		TrackFMGuards:   trackFM,
	})
	rt.RegisterDS(0, farmem.DSMeta{Name: "bench", ObjSize: 4096})
	rt.SetPlacement(0, farmem.PlaceRemotable)
	addr, err := rt.DSAlloc(0, 1<<20)
	if err != nil {
		panic(err)
	}
	// Materialize the first object so hits stay hits.
	if _, err := rt.Guard(addr, true); err != nil {
		panic(err)
	}
	return rt, addr
}

func BenchmarkGuardLocalHitCaRDS(b *testing.B) {
	rt, addr := newBenchRuntime(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Guard(addr, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardLocalHitTrackFM(b *testing.B) {
	rt, addr := newBenchRuntime(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Guard(addr, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGuardFastPathPinned(b *testing.B) {
	rt := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: 1 << 20})
	rt.RegisterDS(0, farmem.DSMeta{Name: "pinned", ObjSize: 4096})
	rt.SetPlacement(0, farmem.PlacePinned)
	addr, err := rt.DSAlloc(0, 4096)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Guard(addr, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardHitStridedPrefetch is the guard hit as a compiled
// strided scan pays it: every object resident, but with the prefetcher
// the compiler's hints select and the production breaker threshold
// installed — the two things the bare BenchmarkGuardLocalHit* rungs (and
// benchmark/'s farmem.guard_hit_ns) leave out, and where a hit's time
// actually went.
func BenchmarkGuardHitStridedPrefetch(b *testing.B) {
	const obj, size = 4096, 1 << 20
	rt := farmem.New(farmem.Config{
		PinnedBudget:     1 << 20,
		RemotableBudget:  4 * size,
		BreakerThreshold: 8,
	})
	defer rt.Close()
	rt.RegisterDS(0, farmem.DSMeta{Name: "scan", ObjSize: obj, ElemSize: 8, Stride: 8, Pattern: farmem.PatternStrided})
	rt.SetPlacement(0, farmem.PlaceRemotable)
	rt.SetPrefetcher(0, prefetch.Select(prefetch.Hints{Pattern: farmem.PatternStrided, ElemSize: 8, Stride: 8, ObjSize: obj}))
	addr, err := rt.DSAlloc(0, size)
	if err != nil {
		b.Fatal(err)
	}
	for off := uint64(0); off < size; off += obj {
		if _, err := rt.Guard(addr+off, true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Guard(addr+uint64(i)*8%size, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpLoopNsPerInstr runs the analytics workload's histogram
// kernel (hist[(col[i]/div) % buckets]++) over plain local memory: no
// guards, no far tier, only the interpreter's dispatch, operand and
// call costs. One op is one 1024-row kernel call; ns/instr is the
// figure to compare with benchmark/'s interp.local_ns_per_instr.
func BenchmarkInterpLoopNsPerInstr(b *testing.B) {
	const rows = 1024
	i64 := ir.I64()
	m := ir.NewModule("histogram")
	hist := m.NewFunc("histogram", ir.Void(),
		ir.P("col", ir.Ptr(i64)), ir.P("hist", ir.Ptr(i64)), ir.P("n", i64),
		ir.P("div", i64), ir.P("buckets", i64))
	{
		hb := ir.NewBuilder(hist)
		loop := hb.CountedLoop("i", ir.CI(0), hist.Params[2], ir.CI(1))
		v := hb.Load(i64, hb.Idx(hist.Params[0], loop.IV))
		slot := hb.Idx(hist.Params[1], hb.Rem(hb.Div(v, hist.Params[3]), hist.Params[4]))
		hb.Store(i64, hb.Add(hb.Load(i64, slot), ir.CI(1)), slot)
		hb.CloseLoop(loop)
		hb.Ret(nil)
	}
	mb := ir.NewBuilder(m.NewFunc("main", ir.Void()))
	col := mb.Alloc(i64, ir.CI(rows))
	fill := mb.CountedLoop("fill", ir.CI(0), ir.CI(rows), ir.CI(1))
	mb.Store(i64, mb.Mul(fill.IV, ir.CI(37)), mb.Idx(col, fill.IV))
	mb.CloseLoop(fill)
	buckets := mb.Alloc(i64, ir.CI(24))
	reps := mb.CountedLoop("reps", ir.CI(0), ir.CI(int64(b.N)), ir.CI(1))
	mb.Call(hist, col, buckets, ir.CI(rows), ir.CI(60), ir.CI(24))
	mb.CloseLoop(reps)
	mb.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	rt := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: 1 << 20})
	mach, err := interp.New(m, rt, interp.Options{MaxSteps: 1 << 62})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := mach.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(mach.Stats().Instructions), "ns/instr")
}

// runCompiledTaxi runs a compiled taxi program (compileTaxi) once as
// core.Compiled.Run would, placed by MaxUse at k = 0.5 into a quarter of
// its working set (half pinned, half remotable) over the in-process
// store, with the production breaker threshold, and returns its runtime
// counters and how many of its guards a guard site's memo served.
func runCompiledTaxi(tb testing.TB, c *core.Compiled, workingSet uint64) (farmem.RuntimeStats, uint64) {
	local := workingSet / 4
	rt, _, err := c.NewRuntime(core.RunConfig{
		Policy: policy.MaxUse, K: 0.5,
		PinnedBudget: local / 2, RemotableBudget: local / 2,
		BreakerThreshold: 8,
	})
	if err != nil {
		tb.Fatal(err)
	}
	defer rt.Close()
	mach, err := interp.New(c.Module, rt, interp.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		tb.Fatal(err)
	}
	rt.PublishObs()
	return rt.Stats(), rt.MemoHits()
}

// compileTaxi compiles the analytics workload's taxi program at trips
// trips and returns it with its working-set size.
func compileTaxi(tb testing.TB, trips int64) (*core.Compiled, uint64) {
	w := workloads.BuildTaxi(workloads.TaxiConfig{Trips: trips, HotPasses: 6, Seed: 1})
	c, err := core.Compile(w.Module, core.CompileOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return c, w.WorkingSetBytes
}

// TestCompiledTaxiGuardsHitTheirSiteMemo: a compiled strided scan's
// guard site nearly always touches the object it touched last, so at
// least 95 % of the taxi program's tagged guards are served from their
// site's memo, without a runtime call.
func TestCompiledTaxiGuardsHitTheirSiteMemo(t *testing.T) {
	c, ws := compileTaxi(t, 1<<14)
	st, memo := runCompiledTaxi(t, c, ws)
	tagged := st.GuardChecks - st.FastPathHits
	if tagged == 0 || float64(memo) < 0.95*float64(tagged) {
		t.Fatalf("%d of %d tagged guards served from a site memo, want at least 95 %%", memo, tagged)
	}
	t.Logf("%d of %d tagged guards (%.2f %%) served from a site memo", memo, tagged, 100*float64(memo)/float64(tagged))
}

// BenchmarkCompiledTaxiNsPerDeref runs the analytics workload end to end
// in process (runCompiledTaxi at 1<<16 trips). Its strided scans are
// prefetch-hidden, so the interpreter and the guard hit path are what it
// times: ns/deref is wall time per guarded access, the in-process
// counterpart of benchmark/'s analytics ops_per_s, and memo-hits/deref
// the share of guards served from a guard site's memo.
func BenchmarkCompiledTaxiNsPerDeref(b *testing.B) {
	c, ws := compileTaxi(b, 1<<16)
	var derefs, memo uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, n := runCompiledTaxi(b, c, ws)
		derefs += st.GuardChecks
		memo += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(derefs), "ns/deref")
	b.ReportMetric(float64(memo)/float64(derefs), "memo-hits/deref")
}

// opCounter counts the reads — blocking and asynchronous — and the
// range writes the runtime issues to a pipelined client; every other
// surface passes straight through.
type opCounter struct {
	*remote.PipelinedClient
	syncReads, asyncReads, rangeWrites uint64
}

func (s *opCounter) ReadObj(ds, idx int, dst []byte) error {
	s.syncReads++
	return s.PipelinedClient.ReadObj(ds, idx, dst)
}

func (s *opCounter) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.asyncReads++
	s.PipelinedClient.IssueRead(ds, idx, dst, done)
}

// IssueReadWire counts the reads the runtime issues through the
// wire-form surface, which the embedded client would otherwise answer
// uncounted.
func (s *opCounter) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	s.asyncReads++
	s.PipelinedClient.IssueReadWire(ds, idx, dst, blk, done)
}

func (s *opCounter) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	s.rangeWrites++
	s.PipelinedClient.IssueWriteRanges(ds, idx, src, exts, done)
}

// BenchmarkCompiledBFSNsPerDerefTCP runs the bfs workload end to end
// over a real socket: the compiled BFS program (1024 vertices, degree 8,
// 3 trials), placed by MaxUse at k = 0.5 into a quarter of its working
// set, against an in-process cardsd server on loopback with the
// production far-tier settings (dial timeout 2s, 6 retries, breaker 8).
// Unlike BenchmarkCompiledTaxiNsPerDeref it sees the round trips the
// application thread waits for: ns/deref is wall time per guarded
// access, sync-reads/deref the share of them that blocked on a read,
// reads/deref all reads, blocking or not, splices/deref the range
// writes — without RangeWriteback, the unread objects of store-once
// misses evicted as splices of their logged stores — and
// read-frames/deref and write-frames/deref the doorbells that carried
// them, from the client registry's batch-size histograms; gathers/deref
// the reads issued ahead of a gather site's miss (counted in reads) and
// gather-served the share of them that served a miss.
func BenchmarkCompiledBFSNsPerDerefTCP(b *testing.B) {
	w := workloads.BuildBFS(workloads.BFSConfig{Vertices: 1024, Degree: 8, Trials: 3, Seed: 1})
	c, err := core.Compile(w.Module, core.CompileOptions{})
	if err != nil {
		b.Fatal(err)
	}
	local := w.WorkingSetBytes / 4
	cfg := core.RunConfig{
		Policy: policy.MaxUse, K: 0.5,
		PinnedBudget: local / 2, RemotableBudget: local / 2,
		RetryMax: 6, BreakerThreshold: 8,
	}
	want, err := c.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	cl, err := remote.DialPipelined(addr, remote.PipelineOpts{Timeout: 2 * time.Second, RetryMax: 6, Obs: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	store := &opCounter{PipelinedClient: cl}
	cfg.Store = store
	var derefs, gathers, served uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.MainResult != want.MainResult {
			b.Fatalf("checksum %#x over TCP, %#x in process", res.MainResult, want.MainResult)
		}
		derefs += res.Runtime.GuardChecks
		gathers += res.Runtime.GathersIssued
		served += res.Runtime.GatherHits
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(derefs), "ns/deref")
	b.ReportMetric(float64(store.syncReads)/float64(derefs), "sync-reads/deref")
	b.ReportMetric(float64(store.syncReads+store.asyncReads)/float64(derefs), "reads/deref")
	b.ReportMetric(float64(store.rangeWrites)/float64(derefs), "splices/deref")
	b.ReportMetric(float64(reg.Histogram(remote.MetricClientBatchSize).Count())/float64(derefs), "read-frames/deref")
	b.ReportMetric(float64(reg.Histogram(remote.MetricClientWriteBatchSize).Count())/float64(derefs), "write-frames/deref")
	b.ReportMetric(float64(gathers)/float64(derefs), "gathers/deref")
	b.ReportMetric(float64(served)/max(1, float64(gathers)), "gather-served")
}

func BenchmarkRemoteFaultRoundTrip(b *testing.B) {
	// Demand miss + eviction per iteration: the full fault path
	// including the in-process store round trip.
	obj := 4096
	rt := farmem.New(farmem.Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: uint64(16 * obj),
	})
	rt.RegisterDS(0, farmem.DSMeta{Name: "miss", ObjSize: obj})
	rt.SetPlacement(0, farmem.PlaceRemotable)
	nObjs := 256
	addr, err := rt.DSAlloc(0, int64(nObjs*obj))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nObjs; i++ {
		if _, err := rt.Guard(addr+uint64(i*obj), true); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Stride far enough that every access misses.
		idx := (i * 37) % nObjs
		if _, err := rt.Guard(addr+uint64(idx*obj), false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContainerArraySet(b *testing.B) {
	rt, err := New(Config{PinnedMemory: 1 << 22, RemotableMemory: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	a, err := NewArray[int64](rt, "b", 1<<16, Remotable)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Set(i&(1<<16-1), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One benchmark per paper artifact. ----

// runExperiment reruns one experiment per iteration and reports the
// virtual-time cost of a designated cell as a metric, so regressions in
// the reproduced comparisons show up in benchmark diffs.
func runExperiment(b *testing.B, id string, metric func(*bench.Table) (float64, string)) {
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	cfg := bench.Quick()
	var last *bench.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	b.StopTimer()
	if last != nil && metric != nil {
		v, unit := metric(last)
		b.ReportMetric(v, unit)
	}
}

func cell(t *bench.Table, row, col int) float64 {
	var v float64
	fmt.Sscanf(t.Rows[row][col], "%f", &v)
	return v
}

func BenchmarkTable1(b *testing.B) {
	runExperiment(b, "table1", func(t *bench.Table) (float64, string) {
		return cell(t, 0, 1), "cards-local-cycles"
	})
}

func BenchmarkFig4(b *testing.B) {
	runExperiment(b, "fig4", func(t *bench.Table) (float64, string) {
		// max-use speedup over all-remotable (row order: policy.All()).
		return cell(t, 4, 2), "maxuse-speedup"
	})
}

func BenchmarkFig5(b *testing.B) {
	runExperiment(b, "fig5", func(t *bench.Table) (float64, string) {
		return cell(t, 1, 2), "linear-k50-vsec"
	})
}

func BenchmarkFig6(b *testing.B) {
	runExperiment(b, "fig6", func(t *bench.Table) (float64, string) {
		return cell(t, 4, 2), "maxuse-k50-vsec"
	})
}

func BenchmarkFig7(b *testing.B) {
	runExperiment(b, "fig7", func(t *bench.Table) (float64, string) {
		return cell(t, 4, 2), "maxuse-k50-vsec"
	})
}

func BenchmarkFig8(b *testing.B) {
	runExperiment(b, "fig8", func(t *bench.Table) (float64, string) {
		return cell(t, 0, 4), "cards-vs-trackfm-25pct"
	})
}

func BenchmarkFig9(b *testing.B) {
	runExperiment(b, "fig9", func(t *bench.Table) (float64, string) {
		return cell(t, 2, 3), "list-speedup"
	})
}

func BenchmarkAblation(b *testing.B) {
	runExperiment(b, "ablation", func(t *bench.Table) (float64, string) {
		return cell(t, 3, 2), "no-versioning-slowdown"
	})
}

var _ = netsim.DefaultHz
var _ stats.Sample
