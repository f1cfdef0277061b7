package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"cards/internal/stats"
)

// column collects one metric's value from every repetition that
// reported it.
func column(reps []*repResult, name string) *stats.Sample {
	var v stats.Sample
	for _, r := range reps {
		if x, ok := r.Metrics[name]; ok {
			v.Observe(x)
		}
	}
	return &v
}

// aggregate reduces the repetitions of one workload to one value per
// metric. Metrics that measure time report their better quartile (see
// betterQuartile), failed_share its worst repetition, since a single bad
// one must show, and everything else the median.
func aggregate(reps []*repResult) metricMap {
	out := metricMap{}
	for _, r := range reps {
		for k := range r.Metrics {
			if _, done := out[k]; done {
				continue
			}
			col := column(reps, k)
			if q, timed := betterQuartile[k]; timed {
				out[k] = col.Quantile(q)
			} else if k == mFailed {
				out[k] = col.Max()
			} else {
				out[k] = col.Median()
			}
		}
	}
	return out
}

// layerMetrics assembles the per-layer report of one workload from its
// untraced numbers (process accounting and counters), its traced
// repetition and the ladder.
func layerMetrics(name string, lr *layerRun, ladder metricMap) metricMap {
	m := metricMap{}
	m.merge(ladder)
	m.merge(lr.traced.Metrics) // transport attribution, seam spans, budget.runtime_us
	m.merge(lr.untraced.Metrics)
	if compiledWorkload(name) {
		m["interp.local_ns_per_instr"] = lr.localNsPerInstr
	}
	m["trace.overhead_share"] = ratio(lr.traced.WallS, lr.untraced.WallS) - 1
	if name == wlArrayRd {
		// The layers must sum to the end-to-end figure: the runtime's
		// share (a fault over the in-process store, per fetch) plus the
		// transport's four attributed components, per call.
		mean := lr.traced.MeanOpUS
		layers := ladder["farmem.fault_mapstore_ns"]/1e3*lr.traced.FetchesPerOp + lr.traced.AttribPerOpUS
		m["budget.residual_share"] = ratio(math.Abs(mean-layers), mean)
	}
	if name == wlArrayRW && lr.arrayReadCPU > 0 {
		m["replica.cpu_us_per_op"] = lr.untraced.Metrics[mCPU] - lr.arrayReadCPU
	}
	return m
}

func printEnv(s *session) {
	env := envBlock()
	fmt.Fprintln(s.out, "== environment ==")
	for _, k := range []string{"commit", "go", "nproc", "gomaxprocs", "kernel", "cpu"} {
		fmt.Fprintf(s.out, "%-11s %s\n", k, env[k])
	}
	fmt.Fprintf(s.out, "%-11s workers and servers pinned to CPU %d (GOMAXPROCS 1 in each)\n", "affinity", s.cpu)
	fmt.Fprintf(s.out, "%-11s %d\n%-11s %s\n\n", "seed", s.seed, "scale", s.scale)
}

// e2eSet is one pass over the workloads with tracing off.
type e2eSet struct {
	reps    map[string][]*repResult
	oracles map[string]*oracle
}

func (s *session) runE2E(set []workload) (*e2eSet, error) {
	out := &e2eSet{reps: map[string][]*repResult{}, oracles: map[string]*oracle{}}
	for _, w := range set {
		o, err := s.oracleFor(w)
		if err != nil {
			return nil, err
		}
		reps, err := s.measureUntraced(w, o, 0)
		if err != nil {
			return nil, err
		}
		out.reps[w.name], out.oracles[w.name] = reps, o
		fmt.Fprintf(errOut, "benchmark: %s: %d repetitions done\n", w.name, len(reps))
	}
	return out, nil
}

// totalFailed sums oracle failures over a set.
func (e *e2eSet) totalFailed() (failed uint64) {
	for _, reps := range e.reps {
		for _, r := range reps {
			failed += r.Failed
		}
	}
	return failed
}

var reportedE2E = append(append([]metricDef(nil), endToEnd...), metricDef{mFailed, "ratio", "lower", 0})

func printE2E(out io.Writer, set []workload, e *e2eSet) {
	fmt.Fprintf(out, "== end to end (tracing off; %d repetitions: better quartile of the timed metrics, median of the others; min and max beside it) ==\n", minReps)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tmin\tmax\tunit")
	for _, w := range set {
		reps := e.reps[w.name]
		agg := aggregate(reps)
		for _, d := range reportedE2E {
			col := column(reps, d.name)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%s\n", w.name, d.name, agg[d.name], col.Min(), col.Max(), d.unit)
		}
		walls := make([]string, len(reps))
		for i, r := range reps {
			walls[i] = fmt.Sprintf("%.2f", r.WallS)
		}
		fmt.Fprintf(tw, "%s\trepetition_wall_s\t%s\t\t\ts\n", w.name, strings.Join(walls, " "))
	}
	tw.Flush()
	fmt.Fprintln(out)
}

// fullMain is `go run ./benchmark`: the end-to-end set, then one traced
// repetition per workload and the ladder for the per-layer report.
func fullMain(s *session, set []workload) error {
	printEnv(s)
	e, err := s.runE2E(set)
	if err != nil {
		return err
	}
	printE2E(s.out, set, e)

	ladder, err := s.run(repSpec{Workload: kindLadder, Scale: s.scale})
	if err != nil {
		return err
	}
	arrayReadCPU := 0.0
	if reps, ok := e.reps[wlArrayRd]; ok {
		arrayReadCPU = aggregate(reps)[mCPU]
	}
	fmt.Fprintln(s.out, "== per layer (P process accounting and C counters: aggregated untraced repetitions; T: one traced repetition) ==")
	tw := tabwriter.NewWriter(s.out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	var budget []string
	for _, w := range set {
		reps := e.reps[w.name]
		base := &repResult{Metrics: aggregate(reps), WallS: sampleOf(wallsOf(reps)).Median(),
			Checksum: reps[0].Checksum, ChasesIssued: reps[0].ChasesIssued, StagedWriteBacks: reps[0].StagedWriteBacks}
		lr, err := s.measureLayers(w, e.oracles[w.name], base)
		if err != nil {
			return err
		}
		if w.name == wlArrayRW {
			lr.arrayReadCPU = arrayReadCPU
		}
		m := layerMetrics(w.name, lr, ladder.Metrics)
		for _, d := range perLayer {
			_, onLadder := ladder.Metrics[d.name]
			if v, ok := m[d.name]; ok && !onLadder {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", w.name, d.name, v, d.unit)
			}
		}
		if w.name == wlArrayRd {
			budget = budgetLines(lr, m)
		}
	}
	tw.Flush()
	fmt.Fprintln(s.out, "\n== ladder (L: testing.Benchmark on each layer's public functions, 4 KiB objects, 32-tuple batches) ==")
	tw = tabwriter.NewWriter(s.out, 0, 0, 2, ' ', 0)
	for _, d := range perLayer {
		if v, ok := ladder.Metrics[d.name]; ok {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, v, d.unit)
		}
	}
	tw.Flush()
	if len(budget) > 0 {
		fmt.Fprintln(s.out, "\n== layer budget, array-read (traced repetition; reported, not gated) ==")
		fmt.Fprintln(s.out, strings.Join(budget, "\n"))
	}
	if failed := e.totalFailed(); failed > 0 {
		return fmt.Errorf("%d operations failed the oracle", failed)
	}
	return nil
}

func wallsOf(reps []*repResult) []float64 {
	w := make([]float64, len(reps))
	for i, r := range reps {
		w[i] = r.WallS
	}
	return w
}

// budgetLines renders how array-read's mean call latency splits across
// the layers.
func budgetLines(lr *layerRun, m metricMap) []string {
	t := lr.traced
	runtimeShare := m["farmem.fault_mapstore_ns"] / 1e3 * t.FetchesPerOp
	return []string{
		fmt.Sprintf("mean call latency             %8.2f us", t.MeanOpUS),
		fmt.Sprintf("  transport (4 components)    %8.2f us per call (client_queue %.2f, wire %.2f, server_queue %.2f, server_service %.2f us per remote op)",
			t.AttribPerOpUS, m["remote.client_queue_us"], m["remote.wire_us"], m["cardsd.queue_us"], m["cardsd.service_us"]),
		fmt.Sprintf("  runtime by subtraction      %8.2f us (budget.runtime_us)", m["budget.runtime_us"]),
		fmt.Sprintf("  runtime from the ladder     %8.2f us (farmem.fault_mapstore_ns x %.3f fetches per call)", runtimeShare, t.FetchesPerOp),
		fmt.Sprintf("  unexplained                 %8.1f %% of the mean (budget.residual_share)", 100*m["budget.residual_share"]),
	}
}

// aaReps is the number of repetitions in each set of an A/A comparison.
const aaReps = 8

// runAA measures two end-to-end sets of the same build at once: the
// repetitions of each workload alternate between the sets, so that both
// see the same phases of the host.
func (s *session) runAA(set []workload) ([2]*e2eSet, error) {
	var runs [2]*e2eSet
	for i := range runs {
		runs[i] = &e2eSet{reps: map[string][]*repResult{}, oracles: map[string]*oracle{}}
	}
	for _, w := range set {
		o, err := s.oracleFor(w)
		if err != nil {
			return runs, err
		}
		for i := 0; i < 2*aaReps; i++ {
			r, err := s.run(s.spec(w, o, false))
			if err != nil {
				return runs, err
			}
			runs[i%2].reps[w.name] = append(runs[i%2].reps[w.name], r)
		}
		fmt.Fprintf(errOut, "benchmark: %s: 2 x %d repetitions done\n", w.name, aaReps)
	}
	return runs, nil
}

// aaMain runs the end-to-end set twice on the same build and checks
// that the two agree within each metric's bound. Without -only it covers
// the gated workloads, the ones the bounds are stated for.
func aaMain(s *session, set []workload, gatedOnly bool) error {
	if gatedOnly {
		var gated []workload
		for _, w := range set {
			if w.gated {
				gated = append(gated, w)
			}
		}
		set = gated
	}
	printEnv(s)
	runs, err := s.runAA(set)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, "== A/A: two end-to-end sets of the same build, repetitions alternating ==")
	tw := tabwriter.NewWriter(s.out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tdiff\tbound\tverdict")
	disagree := 0
	for _, w := range set {
		a, b := aggregate(runs[0].reps[w.name]), aggregate(runs[1].reps[w.name])
		for _, d := range endToEnd {
			diff := ratio(math.Abs(b[d.name]-a[d.name]), a[d.name])
			ok := diff <= d.bound
			if d.name == mSetup && math.Abs(b[d.name]-a[d.name]) <= setupAbs {
				ok = true
			}
			verdict := "ok"
			if !ok {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%s\n", w.name, d.name, a[d.name], b[d.name], 100*diff, 100*d.bound, verdict)
		}
	}
	tw.Flush()
	if failed := runs[0].totalFailed() + runs[1].totalFailed(); failed > 0 {
		return fmt.Errorf("%d operations failed the oracle", failed)
	}
	if disagree > 0 {
		return fmt.Errorf("%d workload x metric pairs disagree by more than their bound", disagree)
	}
	return nil
}
