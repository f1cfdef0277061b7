// Command cardsc is the CaRDS compiler driver: it runs the full pass
// pipeline (DSA → pool allocation → prefetch analysis → guards/code
// versioning) over one of the built-in benchmark programs and reports
// what the compiler discovered — the data structure inventory with
// patterns and policy scores, the pool-allocation rewrites, and the
// instrumentation statistics. With -dump-ir it also prints the
// transformed program.
//
// Usage:
//
//	cardsc -prog listing1|analytics|ftfdapml|bfs|sum_array|sum_vector|
//	             sum_list|sum_map|sum_tree
//	       [-scale N] [-dump-ir] [-run]
//	cardsc -in program.ir [-dump-ir] [-run]
//
// With -in, the program is read in the textual IR syntax (see
// internal/ir.Parse and examples/quickstart.ir). With -run, the compiled
// program is also executed on a default runtime and its result printed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/obs"
	"cards/internal/policy"
	"cards/internal/remote"
	"cards/internal/replica"
	"cards/internal/workloads"
)

func buildProgram(name string, scale int64) (*ir.Module, error) {
	switch name {
	case "listing1":
		return ir.BuildListing1(scale*512, 8), nil
	case "analytics":
		return workloads.BuildTaxi(workloads.TaxiConfig{
			Trips: scale * 512, HotPasses: 4, Seed: 2014}).Module, nil
	case "ftfdapml":
		return workloads.BuildFDTD(workloads.FDTDConfig{N: 4 + scale*2, Steps: 2}).Module, nil
	case "bfs":
		return workloads.BuildBFS(workloads.BFSConfig{
			Vertices: scale * 256, Degree: 8, Trials: 2, Seed: 27}).Module, nil
	}
	if strings.HasPrefix(name, "sum_") {
		w, err := workloads.BuildChase(strings.TrimPrefix(name, "sum_"),
			workloads.ChaseConfig{N: scale * 256, Seed: 9})
		if err != nil {
			return nil, err
		}
		return w.Module, nil
	}
	return nil, fmt.Errorf("unknown program %q", name)
}

func main() {
	prog := flag.String("prog", "listing1", "built-in program to compile")
	in := flag.String("in", "", "read a program in textual IR from this file")
	scale := flag.Int64("scale", 2, "workload scale factor")
	dumpIR := flag.Bool("dump-ir", false, "print the transformed IR")
	dumpDSA := flag.Bool("dump-dsa", false, "print the data structure analysis graphs (Figure 2 view)")
	traceRun := flag.Bool("trace", false, "with -run: stream far-memory events to stderr")
	traceOut := flag.String("trace-out", "", "write a Chrome trace (per-pass compile spans; with -run also runtime events) to this file")
	report := flag.Bool("report", false, "with -run: print the per-structure runtime report")
	optimize := flag.Bool("O", false, "run the scalar optimizer before the CaRDS passes")
	run := flag.Bool("run", false, "execute the compiled program (linear policy)")
	pinnedKiB := flag.Uint64("pinned", 4096, "pinned local memory for -run, KiB")
	cacheKiB := flag.Uint64("cache", 512, "remotable local memory for -run, KiB")
	retryMax := flag.Int("retry-max", 0, fmt.Sprintf("with -run: the runtime reissues a failed far-tier operation up to N times, and the transport redials a cut connection up to N times (0: no reissue, %d redials; negative: neither)", remote.DefaultReconnectAttempts))
	breakerThreshold := flag.Int("breaker-threshold", 0, "with -run: trip the circuit breaker (degrade to local memory) after N consecutive far-tier failures (0 = off); with 2+ -remote addresses it arms each backend's breaker instead of the runtime's")
	remoteAddrs := flag.String("remote", "", "with -run: back far memory with cardsd server(s) at these comma-separated addresses; 2+ addresses shard objects across the fleet (pointer-chasing structures pin to one shard, flat pools stripe)")
	replicas := flag.Int("replicas", 1, "with -run and 2+ -remote addresses: replicate each object across R backends with epoch-stamped writes and read failover")
	flag.Parse()

	var m *ir.Module
	var err error
	if *in != "" {
		src, rerr := os.ReadFile(*in)
		if rerr != nil {
			fmt.Fprintf(os.Stderr, "cardsc: %v\n", rerr)
			os.Exit(2)
		}
		m, err = ir.Parse(string(src))
	} else {
		m, err = buildProgram(*prog, *scale)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cardsc: %v\n", err)
		os.Exit(2)
	}

	var tracer *obs.Tracer
	var hub *obs.TraceHub
	if *traceOut != "" {
		tracer = obs.NewTracer(0)
		if *remoteAddrs != "" && *run {
			// Real far tier + trace export: turn on distributed tracing,
			// so the written trace carries the wire and server-stamped
			// spans alongside the runtime's events, linked by trace ID.
			// A compile-and-run is a bounded batch, so sample every root.
			hub = obs.NewTraceHub(tracer, obs.NewFlightRecorder(0, 0), obs.SampleAll)
		}
	}

	c, err := core.Compile(m, core.CompileOptions{Optimize: *optimize, Tracer: tracer})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cardsc: compile: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("program: %s (%d functions)\n", m.Name, len(m.Funcs))
	fmt.Printf("pool allocation: %d static handles, %d dynamic handles\n",
		c.Pool.StaticHandles, c.Pool.DynamicHandles)
	fmt.Printf("guards: %d inserted, %d elided (redundant), %d loops versioned\n\n",
		c.Guards.GuardsInserted, c.Guards.GuardsElided, c.Guards.LoopsVersioned)

	fmt.Printf("%-4s %-34s %-14s %8s %6s %6s %8s\n",
		"id", "data structure", "pattern", "objsize", "use", "reach", "recursive")
	for _, info := range c.Analysis.Infos {
		fmt.Printf("%-4d %-34s %-14s %8d %6d %6d %8v\n",
			info.DS.ID, info.DS.Name(), info.Pattern, info.ObjSize,
			info.UseScore, info.ReachScore, info.DS.Recursive)
	}

	if *dumpDSA {
		fmt.Println()
		c.DSA.Dump(os.Stdout)
	}

	if *dumpIR {
		fmt.Println()
		fmt.Print(m.String())
	}

	if *run {
		rc := core.RunConfig{
			Policy:           policy.Linear,
			K:                100,
			PinnedBudget:     *pinnedKiB << 10,
			RemotableBudget:  *cacheKiB << 10,
			Tracer:           tracer,
			TraceHub:         hub,
			RetryMax:         *retryMax,
			BreakerThreshold: *breakerThreshold,
		}
		if *remoteAddrs != "" {
			store, closeStore, serr := dialRemote(*remoteAddrs, *retryMax, *breakerThreshold, *replicas, hub)
			if serr != nil {
				fmt.Fprintf(os.Stderr, "cardsc: %v\n", serr)
				os.Exit(1)
			}
			defer closeStore()
			rc.Store = store
		}
		res, err := execute(c, rc, *traceRun, *report)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cardsc: run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nrun: %.4f virtual s, main returned %d (%#x)\n",
			res.Seconds, int64(res.MainResult), res.MainResult)
		fmt.Printf("     guards=%d remote fetches=%d evictions=%d\n",
			res.Runtime.GuardChecks, res.Runtime.RemoteFetches, res.Runtime.Evictions)
	}

	if tracer != nil {
		if err := writeTrace(*traceOut, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "cardsc: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "cardsc: wrote %d trace events to %s (load in chrome://tracing)\n",
			tracer.Len(), *traceOut)
	}
}

// dialRemote connects the far tier for -run (see replica.Dial: one
// address yields a pipelined client, several a sharded store — or, with
// replicas > 1, a replicated one).
func dialRemote(addrs string, retryMax, breakerThreshold, replicas int, hub *obs.TraceHub) (farmem.Store, func(), error) {
	list := strings.Split(addrs, ",")
	for i := range list {
		list[i] = strings.TrimSpace(list[i])
	}
	if retryMax == 0 {
		retryMax = remote.DefaultReconnectAttempts
	}
	tier, err := replica.Dial(list,
		remote.PipelineOpts{Timeout: 2 * time.Second, RetryMax: retryMax, Trace: hub},
		replica.Options{Replicas: replicas, BreakerThreshold: breakerThreshold, Trace: hub})
	if err != nil {
		return nil, nil, err
	}
	return tier, func() { tier.Close() }, nil
}

// writeTrace dumps the ring as Chrome trace_event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// execute runs the compiled program as core.Run does, with optional
// event tracing (to stderr) and a final per-structure report (to
// stdout). Write-backs the runtime could not land at close fail the run.
func execute(c *core.Compiled, rc core.RunConfig, trace, report bool) (res *core.RunResult, err error) {
	rt, placements, err := c.NewRuntime(rc)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, rt.Close()) }()
	if trace {
		rt.SetEventHook(farmem.TraceWriter(os.Stderr))
	}
	res, err = c.Execute(rt, placements, rc.MaxSteps)
	if err == nil && report {
		fmt.Println()
		rt.Report(os.Stdout)
	}
	return res, err
}
