// Package core orchestrates the CaRDS pipeline — the paper's primary
// contribution: compile-time data structure identification feeding
// runtime policy decisions, per data structure, without profiling.
//
// Compile runs the pass pipeline of §4.1 over an IR program:
//
//	DSA (SeaDSA-style, context-sensitive)
//	→ pool allocation (Algorithm 1; handles into the runtime)
//	→ prefetching analysis + policy scoring (eq. 1, reach)
//	→ guard insertion, redundant guard elimination, code versioning
//
// Run then executes the compiled program on a fresh far-memory runtime
// configured with a remoting policy (Linear / Random / MaxReach /
// MaxUse / AllRemotable), the tunable k, and per-data-structure
// prefetchers selected from the compiler hints — reproducing the system
// measured in Figures 4–9.
package core

import (
	"errors"
	"fmt"

	"cards/internal/analysis"
	"cards/internal/dsa"
	"cards/internal/farmem"
	"cards/internal/guards"
	"cards/internal/interp"
	"cards/internal/ir"
	"cards/internal/netsim"
	"cards/internal/obs"
	"cards/internal/opt"
	"cards/internal/policy"
	"cards/internal/poolalloc"
	"cards/internal/prefetch"
	"cards/internal/shardmap"
)

// Compiled is a program that has been through the CaRDS pass pipeline.
type Compiled struct {
	Module   *ir.Module
	DSA      *dsa.Result
	Pool     *poolalloc.Result
	Analysis *analysis.Result
	Guards   *guards.Result
}

// CompileOptions tunes the pipeline.
type CompileOptions struct {
	// Guards configures instrumentation; zero value means full CaRDS
	// (RGE + code versioning).
	Guards guards.Options
	// DSA configures the data structure analysis (ablations can disable
	// context sensitivity).
	DSA dsa.Options
	// Optimize runs the scalar optimizer (constant folding, branch
	// folding, DCE) before the CaRDS passes, as LLVM's -O pipeline would
	// have.
	Optimize bool
	// Tracer, when non-nil, receives one wall-clock span per compiler
	// pass (category "compile") — the -trace-out view of where compile
	// time goes.
	Tracer *obs.Tracer
}

// Compile runs the full CaRDS pass pipeline on m (mutating it).
func Compile(m *ir.Module, opts CompileOptions) (*Compiled, error) {
	if opts.Guards == (guards.Options{}) {
		opts.Guards = guards.DefaultOptions()
	}
	pass := func(name string, fn func() error) error {
		done := opts.Tracer.Span("compile", name, 0)
		err := fn()
		done()
		return err
	}
	if err := pass("verify", func() error { return ir.Verify(m) }); err != nil {
		return nil, fmt.Errorf("core: input program invalid: %w", err)
	}
	if opts.Optimize {
		pass("simplify", func() error { opt.Simplify(m); return nil })
	}
	m.AssignSites()
	var (
		ds   *dsa.Result
		pool *poolalloc.Result
		an   *analysis.Result
		g    *guards.Result
	)
	pass("dsa", func() error { ds = dsa.AnalyzeWithOptions(m, opts.DSA); return nil })
	pass("poolalloc", func() error { pool = poolalloc.Transform(m, ds); return nil })
	pass("analysis", func() error { an = analysis.Analyze(m, ds); return nil })
	pass("guards", func() error { g = guards.Transform(m, ds, an, opts.Guards); return nil })
	return &Compiled{Module: m, DSA: ds, Pool: pool, Analysis: an, Guards: g}, nil
}

// Candidates converts the analysis scores into policy inputs.
func (c *Compiled) Candidates() []policy.Candidate {
	out := make([]policy.Candidate, len(c.Analysis.Infos))
	for i, info := range c.Analysis.Infos {
		out[i] = policy.Candidate{
			ID:         info.DS.ID,
			UseScore:   info.UseScore,
			ReachScore: info.ReachScore,
		}
	}
	return out
}

// RunConfig configures one execution of a compiled program.
type RunConfig struct {
	// Policy and K select the remoting policy (ignored if Placements is
	// set explicitly, e.g. by the Mira baseline).
	Policy policy.Kind
	K      float64
	Seed   int64

	// Placements overrides the policy with explicit per-DS decisions.
	Placements []farmem.Placement

	// PinnedBudget and RemotableBudget split local memory in bytes.
	PinnedBudget, RemotableBudget uint64

	// Prefetch enables per-data-structure prefetchers (on by default in
	// CaRDS; DisablePrefetch turns them off for ablations).
	DisablePrefetch bool

	// Model overrides the cost model (zero value: Table 1 defaults).
	Model netsim.CostModel

	// Store overrides the remote tier (nil: in-process store).
	Store farmem.Store

	// MaxSteps bounds interpretation (0 = interp default).
	MaxSteps uint64

	// Obs, when non-nil, is the metric registry the runtime publishes
	// into (nil: the runtime creates a private one).
	Obs *obs.Registry

	// Tracer, when non-nil, receives runtime events (fetch, prefetch,
	// evict, spill) into the bounded ring for Chrome-trace export.
	Tracer *obs.Tracer

	// TraceHub, when non-nil, makes the runtime open distributed root
	// spans on misses/prefetches/write-backs; share it with the far-tier
	// clients (remote.PipelineOpts.Trace) so their wire spans join the
	// same traces.
	TraceHub *obs.TraceHub

	// RetryMax reissues failed store operations (charged to the link as
	// wasted round trips plus backoff); 0 disables retries.
	RetryMax int
	// BreakerThreshold arms the runtime circuit breaker of a single
	// store (degradation to local memory after this many consecutive
	// store failures); 0 disables it. Over a multi-backend store the
	// backends' own breakers count the failures instead. See
	// internal/farmem/breaker.go.
	BreakerThreshold int

	// RangeWriteback enables compiler-aided dirty-range write-back:
	// guard write spans and per-DS write footprints feed the runtime's
	// dirty rectangles, and evictions ship only the modified extents
	// when the store supports it. See internal/farmem/dirtyrange.go.
	RangeWriteback bool
}

// RunResult captures everything one execution measured.
type RunResult struct {
	// Cycles is the virtual execution time; Seconds its wall-clock
	// equivalent at the paper's 2.4 GHz.
	Cycles  uint64
	Seconds float64

	// ROICycles/ROISeconds cover only the program's declared region of
	// interest (zero when the program declares none).
	ROICycles  uint64
	ROISeconds float64

	Runtime farmem.RuntimeStats
	Interp  interp.Stats

	// MainResult is the value returned by the program's main (workloads
	// return checksums, so identical inputs must yield identical values
	// under every policy).
	MainResult uint64

	// PerDS is a snapshot of each data structure's counters.
	PerDS []farmem.DSStats

	// Placements records the effective placement per DS.
	Placements []farmem.Placement

	// PinnedIDs lists the statically pinned structure IDs.
	PinnedIDs []int
}

// TotalPrefetchHits sums prefetch hits across structures.
func (r *RunResult) TotalPrefetchHits() uint64 {
	var n uint64
	for _, d := range r.PerDS {
		n += d.PrefetchHits
	}
	return n
}

// NewRuntime builds and configures a runtime for the compiled program
// without running it (used by benches that drive execution themselves).
func (c *Compiled) NewRuntime(cfg RunConfig) (*farmem.Runtime, []farmem.Placement, error) {
	rt := farmem.New(farmem.Config{
		Model:            cfg.Model,
		PinnedBudget:     cfg.PinnedBudget,
		RemotableBudget:  cfg.RemotableBudget,
		Store:            cfg.Store,
		Obs:              cfg.Obs,
		Tracer:           cfg.Tracer,
		TraceHub:         cfg.TraceHub,
		RetryMax:         cfg.RetryMax,
		BreakerThreshold: cfg.BreakerThreshold,
		RangeWriteback:   cfg.RangeWriteback,
	})

	placements := cfg.Placements
	if placements == nil {
		placements = policy.Assign(cfg.Policy, c.Candidates(), cfg.K, cfg.Seed)
	}
	if len(placements) != len(c.Analysis.Infos) {
		return nil, nil, fmt.Errorf("core: %d placements for %d structures",
			len(placements), len(c.Analysis.Infos))
	}

	for i, info := range c.Analysis.Infos {
		meta := farmem.DSMeta{
			Name:       info.DS.Name(),
			ObjSize:    info.ObjSize,
			Stride:     info.Stride,
			Pattern:    mapPattern(info.Pattern),
			Recursive:  info.DS.Recursive,
			UseScore:   info.UseScore,
			ReachScore: info.ReachScore,
		}
		if info.DS.Elem != nil {
			meta.ElemSize = info.DS.Elem.Size()
			meta.PtrOffsets = ir.PointerFieldOffsets(info.DS.Elem)
		}
		meta.WriteFootprint = info.WriteFootprint
		if _, err := Register(rt, cfg.Store, info.DS.ID, meta, placements[i], !cfg.DisablePrefetch); err != nil {
			return nil, nil, err
		}
	}
	return rt, placements, nil
}

// Register declares structure id on rt with its placement and installs
// what its hints select: over a multi-backend store (sharded or
// replicated) the shard placement rule — pointer-chasing structures pin
// to one shard or replica group, so compiler-batched prefetches stay
// single-backend, and flat pools stripe across all of them — and, when
// withPrefetch is set, the structure's prefetcher.
func Register(rt *farmem.Runtime, store farmem.Store, id int, meta farmem.DSMeta, place farmem.Placement, withPrefetch bool) (*farmem.DS, error) {
	d, err := rt.RegisterDS(id, meta)
	if err != nil {
		return nil, err
	}
	if err := rt.SetPlacement(id, place); err != nil {
		return nil, err
	}
	if ss, ok := store.(interface {
		SetPolicy(ds int, p shardmap.Policy)
	}); ok {
		ss.SetPolicy(id, shardmap.PolicyFor(meta.Recursive, meta.Pattern == farmem.PatternPointerChase))
	}
	if !withPrefetch {
		return d, nil
	}
	if pf := prefetch.Select(prefetch.Hints{
		Pattern:    meta.Pattern,
		Recursive:  meta.Recursive,
		ElemSize:   meta.ElemSize,
		PtrOffsets: meta.PtrOffsets,
		Stride:     meta.Stride,
		ObjSize:    meta.ObjSize,
	}); pf != nil {
		if err := rt.SetPrefetcher(id, pf); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Run executes the compiled program once under the given configuration.
// Write-backs the runtime could not land at close fail the run.
func (c *Compiled) Run(cfg RunConfig) (res *RunResult, err error) {
	rt, placements, err := c.NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, rt.Close()) }()
	return c.Execute(rt, placements, cfg.MaxSteps)
}

// Execute runs the compiled program on rt, which NewRuntime built with
// placements, and collects what the run measured. The caller closes rt;
// between the two it may attach an event hook or print a report.
func (c *Compiled) Execute(rt *farmem.Runtime, placements []farmem.Placement, maxSteps uint64) (*RunResult, error) {
	mach, err := interp.New(c.Module, rt, interp.Options{MaxSteps: maxSteps})
	if err != nil {
		return nil, err
	}
	mainRes, err := mach.Run()
	if err != nil {
		return nil, err
	}
	// Publish the run's final tallies so a shared cfg.Obs registry (and
	// any -metrics-out export taken from it) reflects this execution.
	rt.PublishObs()

	res := &RunResult{
		Cycles:     rt.Clock().Now(),
		Seconds:    netsim.Seconds(rt.Clock().Now(), netsim.DefaultHz),
		ROICycles:  mach.Stats().ROICycles,
		ROISeconds: netsim.Seconds(mach.Stats().ROICycles, netsim.DefaultHz),
		Runtime:    rt.Stats(),
		Interp:     mach.Stats(),
		MainResult: mainRes,
		Placements: placements,
		PinnedIDs:  policy.PinnedIDs(c.Candidates(), placements),
	}
	for i := 0; i < rt.NumDS(); i++ {
		res.PerDS = append(res.PerDS, rt.DSByID(i).Stats())
	}
	return res, nil
}

func mapPattern(p analysis.Pattern) farmem.Pattern {
	switch p {
	case analysis.PatternStrided:
		return farmem.PatternStrided
	case analysis.PatternPointerChase:
		return farmem.PatternPointerChase
	case analysis.PatternIndirect:
		return farmem.PatternIndirect
	}
	return farmem.PatternUnknown
}
