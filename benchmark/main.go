// Command benchmark measures the far tier end to end and layer by layer
// over real sockets: six workloads run against child cardsd processes
// on TCP loopback with no injected latency and tracing off, every
// output is checked against an independent oracle, and a separate
// traced repetition plus a ladder of seam microbenchmarks give the
// per-layer numbers. See README.md in this directory.
//
// Usage:
//
//	go run ./benchmark [-seed 42] [-scale full|driver|smoke] [-only <workload>] [-aa]
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The second form is the driver's contract: one workload, one JSON
// object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// errOut receives diagnostics; results go to standard output only.
var errOut io.Writer = os.Stderr

func main() {
	var (
		workloadName = flag.String("workload", "", "driver mode: run this one workload and print one JSON result line")
		seed         = flag.Int64("seed", 42, "seed of every input generator")
		seconds      = flag.Float64("seconds", 10, "driver mode: seconds of measured work (repetitions are added until reached)")
		trace        = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		scale        = flag.String("scale", "", "work per repetition: full, driver or smoke (default full; driver in driver mode and with -aa)")
		only         = flag.String("only", "", "run only this workload")
		aa           = flag.Bool("aa", false, "run the end-to-end set twice on this build and compare the two within the bounds")
		worker       = flag.String(workerFlag, "", "internal: run one repetition described by this JSON spec")
	)
	flag.Parse()
	if err := run(*worker, *workloadName, *only, *scale, *seed, *seconds, *trace, *aa); err != nil {
		fmt.Fprintf(errOut, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

func run(worker, workloadName, only, scale string, seed int64, seconds float64, trace int, aa bool) error {
	if worker != "" {
		return workerMain(worker)
	}
	if scale == "" {
		scale = "full"
		if workloadName != "" || aa {
			scale = "driver" // -aa checks the bounds at the scale they gate
		}
	}
	if _, ok := scales[scale]; !ok {
		return fmt.Errorf("unknown scale %q", scale)
	}
	bin, err := buildCardsd(".")
	if err != nil {
		return err
	}
	// After the build, which may use every CPU: the measurements may not.
	cpu, err := pinToOneCPU()
	if err != nil {
		return err
	}
	s := &session{run: subprocessRunner, cardsd: bin, seed: seed, scale: scale, traceDir: buildDir, out: os.Stdout, cpu: cpu}
	if workloadName != "" {
		w, ok := findWorkload(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		return driverMain(s, w, seconds, trace == 1)
	}
	set := workloads
	if only != "" {
		w, ok := findWorkload(only)
		if !ok {
			return fmt.Errorf("unknown workload %q", only)
		}
		set = []workload{w}
	}
	if aa {
		return aaMain(s, set, only == "")
	}
	return fullMain(s, set)
}

// session is one benchmark invocation's fixed inputs.
type session struct {
	run      runner
	cardsd   string
	seed     int64
	scale    string
	traceDir string    // where traced repetitions write their Chrome traces
	out      io.Writer // results; diagnostics go to errOut
	cpu      int       // the CPU everything is pinned to; -1 when not pinned (tests)
}

// minReps is the number of repetitions every end-to-end figure is
// aggregated from at least.
const minReps = 3

// spec returns the repetition spec of a workload, with the oracle of a
// compiled workload attached.
func (s *session) spec(w workload, o *oracle, traced bool) repSpec {
	spec := repSpec{Workload: w.name, Seed: s.seed, Scale: s.scale, Cardsd: s.cardsd, Traced: traced}
	if traced {
		spec.TraceOut = filepath.Join(s.traceDir, "trace-"+w.name+".json")
	}
	if o != nil {
		spec.Expect, spec.HaveExpect = o.checksum, true
	}
	return spec
}

// oracleFor computes the reference of a compiled workload, nil for the
// others (their oracles check every call inline).
func (s *session) oracleFor(w workload) (*oracle, error) {
	if !compiledWorkload(w.name) {
		return nil, nil
	}
	o, err := compiledOracle(w.name, s.seed, scales[s.scale])
	if err != nil {
		return nil, err
	}
	return &o, nil
}

// measureUntraced runs untraced repetitions of w until at least minReps
// are done and they hold `seconds` of measured work.
func (s *session) measureUntraced(w workload, o *oracle, seconds float64) ([]*repResult, error) {
	var reps []*repResult
	var measured, last float64
	// The wall budget keeps a slow host inside the driver's per-run
	// limit: no repetition starts after it.
	deadline := time.Now().Add(100 * time.Second)
	// A further repetition starts only if at least half of it fits.
	for len(reps) < minReps || measured+last/2 < seconds {
		if len(reps) >= minReps && time.Now().After(deadline) {
			break
		}
		r, err := s.run(s.spec(w, o, false))
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		last = r.WallS
		measured += last
		fmt.Fprintf(errOut, "benchmark: %s: repetition %d: %.3f s measured, %.6g ops/s, set-up %.4f s\n", w.name, len(reps), r.WallS, r.Metrics[mOps], r.Metrics[mSetup])
	}
	return reps, nil
}

// layerRun is everything the per-layer report of one workload needs.
type layerRun struct {
	untraced, traced *repResult
	localNsPerInstr  float64
	// arrayReadCPU is array-read's cpu_us_per_op, the baseline of
	// replica.cpu_us_per_op; only set for array-rw-r2.
	arrayReadCPU float64
}

// measureLayers makes the traced repetition of w and, unless the caller
// already has untraced repetitions to compare with, one untraced one.
func (s *session) measureLayers(w workload, o *oracle, untraced *repResult) (*layerRun, error) {
	lr := &layerRun{untraced: untraced}
	var err error
	if lr.untraced == nil {
		if lr.untraced, err = s.run(s.spec(w, o, false)); err != nil {
			return nil, err
		}
	}
	if lr.traced, err = s.run(s.spec(w, o, true)); err != nil {
		return nil, err
	}
	if err := sameProgram(w.name, lr.untraced, lr.traced); err != nil {
		return nil, err
	}
	if o != nil {
		lr.localNsPerInstr = o.localNsPerInstr
	}
	return lr, nil
}

// sameProgram checks that the traced repetition engaged the same
// runtime paths as the untraced one; otherwise the decorator changed
// what farmem detected and the traced numbers describe another program.
func sameProgram(name string, untraced, traced *repResult) error {
	if traced.Failed != 0 || untraced.Failed != 0 {
		return nil // reported as failures; no second error
	}
	if traced.Checksum != untraced.Checksum {
		return fmt.Errorf("%s: traced checksum %#x differs from untraced %#x", name, traced.Checksum, untraced.Checksum)
	}
	if name == wlChase && (traced.ChasesIssued == 0 || untraced.ChasesIssued == 0) {
		return fmt.Errorf("%s: traversal offload not engaged (chases issued: untraced %d, traced %d)", name, untraced.ChasesIssued, traced.ChasesIssued)
	}
	if name == wlBFS && (traced.StagedWriteBacks == 0 || untraced.StagedWriteBacks == 0) {
		return fmt.Errorf("%s: async write-back not engaged (staged: untraced %d, traced %d)", name, untraced.StagedWriteBacks, traced.StagedWriteBacks)
	}
	return nil
}

// driverResult is the one JSON object driver mode prints.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain is the driver's contract: one workload, end-to-end metrics
// with tracing off or per-layer metrics from a traced repetition plus
// the ladder, one JSON object on the last line of standard output.
func driverMain(s *session, w workload, seconds float64, traced bool) error {
	o, err := s.oracleFor(w)
	if err != nil {
		return err
	}
	var reps []*repResult
	var defs []metricDef
	var metrics metricMap
	if !traced {
		if reps, err = s.measureUntraced(w, o, seconds); err != nil {
			return err
		}
		defs, metrics = endToEnd, aggregate(reps)
	} else {
		lr, err := s.measureLayers(w, o, nil)
		if err != nil {
			return err
		}
		if w.name == wlArrayRW {
			rd, _ := findWorkload(wlArrayRd)
			base, err := s.run(s.spec(rd, nil, false))
			if err != nil {
				return err
			}
			lr.arrayReadCPU = base.Metrics[mCPU]
		}
		ladder, err := s.run(repSpec{Workload: kindLadder, Scale: s.scale})
		if err != nil {
			return err
		}
		reps = []*repResult{lr.untraced, lr.traced}
		defs, metrics = perLayer, layerMetrics(w.name, lr, ladder.Metrics)
	}
	out := driverResult{Correct: true, Metrics: map[string]driverValue{}}
	for _, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	out.Correct = out.Failed == 0
	for _, d := range defs {
		// A per-layer metric that does not apply to this workload (the
		// chase counters on bfs, the compiler's on a library workload)
		// reads zero.
		out.Metrics[d.name] = driverValue{Value: metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, string(line))
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the oracle", w.name, out.Failed, out.Attempted)
	}
	return nil
}
