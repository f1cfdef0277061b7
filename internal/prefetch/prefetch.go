// Package prefetch implements the CaRDS per-data-structure prefetchers
// (paper §4.2 "Prefetching Policy Selection"): a majority stride-based
// prefetcher, a greedy recursive prefetcher, and a jump pointer
// prefetcher, plus the selector that assigns each data structure the
// most appropriate policy from its compiler-provided hints and an
// adaptive wrapper that disables a prefetcher whose measured accuracy is
// poor (the dynamic half of the static+dynamic co-design).
//
// Because every data structure owns a dedicated prefetcher instance, a
// pointer-chasing list and a strided array in the same program prefetch
// independently — the property Figure 9 measures against TrackFM's
// single induction-variable prefetcher.
package prefetch

import (
	"cards/internal/farmem"
	"cards/internal/stats"
)

// Depth is the default number of objects a prefetcher keeps in flight
// ahead of the access stream. Runtime.PrefetchObj only issues the fetch:
// against an AsyncStore (the pipelined TCP client) all Depth reads
// overlap in one in-flight window rather than paying Depth round trips.
const Depth = 8

// Stride is the majority stride-based prefetcher. It watches the deltas
// between consecutive object indices; once a delta wins a majority vote
// over a small history window, it prefetches along that delta.
//
// An access costs O(1) unless something changed. The vote is recomputed
// only when the history does (a new nonzero delta). A repeat — the same
// object again — leaves the history alone and re-walks the same window,
// so the runtime stops calling Stride for repeats once a walk met no
// remote object (farmem.QuietPrefetcher): a scan walks once per object
// it enters rather than once per element.
type Stride struct {
	depth    int
	last     int
	haveLast bool
	history  [8]int
	histLen  int
	histPos  int

	// delta/ok cache majority() over the current history.
	delta int
	ok    bool
}

// NewStride creates a stride prefetcher with the given lookahead depth.
func NewStride(depth int) *Stride {
	if depth <= 0 {
		depth = Depth
	}
	return &Stride{depth: depth}
}

// Name implements farmem.Prefetcher.
func (*Stride) Name() string { return "stride" }

// OnAccess implements farmem.Prefetcher.
func (s *Stride) OnAccess(r *farmem.Runtime, d *farmem.DS, idx int, miss bool) {
	if s.haveLast {
		if delta := idx - s.last; delta != 0 {
			s.history[s.histPos] = delta
			s.histPos = (s.histPos + 1) % len(s.history)
			if s.histLen < len(s.history) {
				s.histLen++
			}
			s.delta, s.ok = s.majority()
		}
	}
	s.last = idx
	s.haveLast = true

	if !s.ok {
		return
	}
	for i := 1; i <= s.depth; i++ {
		r.PrefetchObj(d, idx+i*s.delta)
	}
}

// QuietOnRepeat implements farmem.QuietPrefetcher.
func (*Stride) QuietOnRepeat() bool { return true }

// majority returns the winning delta if one delta holds a strict majority
// of the history window.
func (s *Stride) majority() (int, bool) {
	if s.histLen < 2 {
		return 0, false
	}
	// Boyer–Moore majority vote over the filled portion.
	cand, count := 0, 0
	for i := 0; i < s.histLen; i++ {
		v := s.history[i]
		switch {
		case count == 0:
			cand, count = v, 1
		case v == cand:
			count++
		default:
			count--
		}
	}
	// Verify.
	n := 0
	for i := 0; i < s.histLen; i++ {
		if s.history[i] == cand {
			n++
		}
	}
	if 2*n > s.histLen && cand != 0 {
		return cand, true
	}
	return 0, false
}

// Greedy is the greedy recursive prefetcher [Luk & Mowry]: whenever an
// object of a linked structure is localized, it inspects the pointer
// fields of the resident element(s) and prefetches every child object
// they reference. Suited to trees and graphs where the successor is not
// a fixed allocation-order jump away.
type Greedy struct {
	// Offsets are the pointer-field byte offsets within one element
	// (compiler hint from ds_init).
	Offsets  []int
	ElemSize int
}

// NewGreedy creates a greedy recursive prefetcher from compiler hints.
func NewGreedy(elemSize int, ptrOffsets []int) *Greedy {
	if elemSize <= 0 {
		elemSize = 8
	}
	return &Greedy{Offsets: ptrOffsets, ElemSize: elemSize}
}

// Name implements farmem.Prefetcher.
func (*Greedy) Name() string { return "greedy-recursive" }

// OnAccess implements farmem.Prefetcher.
func (g *Greedy) OnAccess(r *farmem.Runtime, d *farmem.DS, idx int, miss bool) {
	if len(g.Offsets) == 0 {
		return
	}
	// Scan every element resident in this object.
	for elemBase := 0; elemBase+g.ElemSize <= d.Meta.ObjSize; elemBase += g.ElemSize {
		for _, off := range g.Offsets {
			w, ok := r.ObjectWord(d, idx, elemBase+off)
			if !ok {
				return
			}
			if !farmem.IsTagged(w) {
				continue
			}
			// Child may live in this or another structure.
			child := r.DSByID(farmem.DSOf(w))
			if child == nil {
				continue
			}
			childOff := farmem.OffOf(w)
			if childOff >= child.Size() {
				continue
			}
			childIdx := int(childOff) / child.Meta.ObjSize
			if child == d && childIdx == idx {
				continue
			}
			r.PrefetchObj(child, childIdx)
		}
	}
}

// Jump is the jump pointer prefetcher [Luk & Mowry]: for linked
// structures whose nodes were allocated in traversal order (the common
// case for list builds), object index order approximates traversal
// order, so it prefetches a fixed jump ahead in index space. This hides
// the full chain latency that greedy prefetching (one hop ahead) cannot.
type Jump struct {
	jump  int
	depth int
}

// NewJump creates a jump pointer prefetcher that runs `jump` objects
// ahead with the given in-flight depth.
func NewJump(jump, depth int) *Jump {
	if jump <= 0 {
		jump = 4
	}
	if depth <= 0 {
		depth = Depth
	}
	return &Jump{jump: jump, depth: depth}
}

// Name implements farmem.Prefetcher.
func (*Jump) Name() string { return "jump-pointer" }

// OnAccess implements farmem.Prefetcher.
func (j *Jump) OnAccess(r *farmem.Runtime, d *farmem.DS, idx int, miss bool) {
	for i := 0; i < j.depth; i++ {
		r.PrefetchObj(d, idx+j.jump+i)
	}
}

// QuietOnRepeat implements farmem.QuietPrefetcher.
func (*Jump) QuietOnRepeat() bool { return true }

// Chase is the traversal-offload prefetcher: for single-successor
// linked structures over a far tier that speaks the chase verbs, it
// ships a compact traversal program (next-pointer offset + hop budget)
// and lets the server walk the chain — one round trip delivers the
// whole lookahead window instead of one object per dependent RTT. When
// offload is unavailable (plain store, downgraded session, open
// breaker, cross-structure edge) it degrades to the wrapped per-hop
// fallback, so a chase-capable and a chase-less deployment run the same
// policy selection.
type Chase struct {
	hops     int
	fallback farmem.Prefetcher
}

// NewChase creates a traversal-offload prefetcher shipping programs
// with the given hop budget, degrading to fallback when offload cannot
// cover the traversal. A nil fallback disables per-hop degradation.
func NewChase(hops int, fallback farmem.Prefetcher) *Chase {
	if hops <= 0 {
		hops = farmem.DefaultChaseHops
	}
	return &Chase{hops: hops, fallback: fallback}
}

// Name implements farmem.Prefetcher.
func (c *Chase) Name() string {
	if c.fallback != nil {
		return "chase-offload(" + c.fallback.Name() + ")"
	}
	return "chase-offload"
}

// OnAccess implements farmem.Prefetcher.
func (c *Chase) OnAccess(r *farmem.Runtime, d *farmem.DS, idx int, miss bool) {
	if r.ChasePrefetch(d, idx, c.hops) {
		return
	}
	if c.fallback != nil {
		c.fallback.OnAccess(r, d, idx, miss)
	}
}

// Adaptive wraps a prefetcher and monitors the standard prefetching
// metrics (accuracy and coverage, paper §4.2); if accuracy drops below
// the threshold after a trial window, prefetching is disabled for a
// back-off period before being retried.
type Adaptive struct {
	// Inner is the wrapped prefetcher, fixed from the first
	// QuietOnRepeat on.
	Inner farmem.Prefetcher

	// MinAccuracy is the disable threshold (default 0.25).
	MinAccuracy float64
	// Window is the number of issued prefetches per evaluation (default 128).
	Window uint64

	disabledUntil uint64 // re-enable when issued count passes this
	lastIssued    uint64
	lastHits      uint64
	observed      uint64
	quiet         farmem.QuietPrefetcher // Inner, if it is one, once resolved
	resolved      bool
}

// NewAdaptive wraps inner with accuracy-based disabling.
func NewAdaptive(inner farmem.Prefetcher) *Adaptive {
	return &Adaptive{Inner: inner, MinAccuracy: 0.25, Window: 128}
}

// Name implements farmem.Prefetcher.
func (a *Adaptive) Name() string { return "adaptive(" + a.Inner.Name() + ")" }

// OnAccess implements farmem.Prefetcher.
func (a *Adaptive) OnAccess(r *farmem.Runtime, d *farmem.DS, idx int, miss bool) {
	nowIssued, nowHits := d.PrefetchCounts()
	a.observed += 1 + d.TakeRepeats()
	if a.disabledUntil > 0 {
		if a.observed < a.disabledUntil {
			return
		}
		// Back-off expired: retry.
		a.disabledUntil = 0
		a.lastIssued, a.lastHits = nowIssued, nowHits
	}
	issued := nowIssued - a.lastIssued
	if issued >= a.Window {
		hits := nowHits - a.lastHits
		if stats.Ratio(hits, issued) < a.MinAccuracy {
			// Poor accuracy: pause for 4 windows of accesses.
			a.disabledUntil = a.observed + 4*a.Window
			return
		}
		a.lastIssued, a.lastHits = nowIssued, nowHits
	}
	a.Inner.OnAccess(r, d, idx, miss)
}

// QuietOnRepeat implements farmem.QuietPrefetcher: enabled, a repeat
// evaluates nothing (the counts have not moved); disabled, it may resume.
func (a *Adaptive) QuietOnRepeat() bool {
	if a.disabledUntil != 0 {
		return false
	}
	if !a.resolved {
		a.quiet, _ = a.Inner.(farmem.QuietPrefetcher)
		a.resolved = true
	}
	return a.quiet != nil && a.quiet.QuietOnRepeat()
}

// Accuracy returns hits/issued for a data structure's prefetcher.
func Accuracy(d *farmem.DS) float64 {
	st := d.Stats()
	return stats.Ratio(st.PrefetchHits, st.PrefetchIssued)
}

// Coverage returns the fraction of would-be misses hidden by prefetching.
func Coverage(d *farmem.DS) float64 {
	st := d.Stats()
	return stats.Ratio(st.PrefetchHits, st.PrefetchHits+st.Misses)
}

// Hints carries the compiler information the selector consumes; it
// mirrors the relevant DSMeta fields.
type Hints struct {
	Pattern    farmem.Pattern
	Recursive  bool
	ElemSize   int
	PtrOffsets []int
	Stride     int64
	ObjSize    int
}

// Select returns the most appropriate prefetcher for a data structure
// given its compiler hints (paper: "Based on the static and dynamic
// information available for each data structure, CaRDS selects the most
// appropriate prefetch policy"), wrapped in the adaptive monitor.
func Select(h Hints) farmem.Prefetcher {
	var inner farmem.Prefetcher
	switch h.Pattern {
	case farmem.PatternStrided:
		inner = NewStride(Depth)
	case farmem.PatternPointerChase:
		if len(h.PtrOffsets) > 1 {
			// Multiple out-pointers per element: tree/graph node —
			// greedy recursive expansion.
			inner = NewGreedy(h.ElemSize, h.PtrOffsets)
		} else if h.Recursive && len(h.PtrOffsets) == 1 {
			// Single successor: the shape a server-side traversal
			// program can describe. Offload the chase when the far tier
			// speaks the verbs; the wrapped jump prefetcher is the
			// per-hop degradation for chase-less deployments.
			return NewChase(farmem.DefaultChaseHops,
				NewAdaptive(NewJump(4, Depth)))
		} else {
			// Single successor: list — jump pointers hide full chain
			// latency.
			inner = NewJump(4, Depth)
		}
	case farmem.PatternIndirect:
		// A gather's targets are unpredictable from index order, but
		// REPEATED gathers (re-running a query, BFS from nearby
		// frontiers, iterating a map twice) revisit the same object
		// sequence — which the history-based Markov prefetcher learns.
		// The adaptive wrapper shuts it off when the workload never
		// repeats.
		inner = NewMarkov()
	default:
		return nil
	}
	return NewAdaptive(inner)
}
