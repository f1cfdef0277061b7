// Package analysis implements the CaRDS prefetching analysis and the
// static scoring that feeds remoting policy selection (paper §4.1
// "Prefetching analysis" and §4.2 "Remoting policy selection"):
//
//   - induction variable detection per loop (the basis for identifying
//     sequential access, as in TrackFM);
//   - per-data-structure access pattern classification — strided,
//     pointer-chasing, or indirect — which selects each structure's
//     dedicated prefetcher;
//   - the Maximum Use score, ds = MAX(#loops + #functions) (paper
//     equation 1), and the Maximum Reach score derived from caller/callee
//     chain depth on the SCC call graph.
//
// Attribution is interprocedural: an access in a helper function counts
// toward whichever data structure instance flows in at each call site
// (via the DSA clone maps), so Listing 1's ds2 — touched by Set from
// inside main's k-loop — correctly outscores ds1.
package analysis

import (
	"sort"

	"cards/internal/cfg"
	"cards/internal/dsa"
	"cards/internal/ir"
)

// Pattern classifies the prototypical access pattern of a data structure.
type Pattern int

// Access pattern kinds.
const (
	// PatternUnknown: no loop accesses observed.
	PatternUnknown Pattern = iota
	// PatternStrided: accesses walk the structure with a constant
	// stride driven by an induction variable (array scans).
	PatternStrided
	// PatternPointerChase: the next address is loaded from the current
	// element (linked lists, trees).
	PatternPointerChase
	// PatternIndirect: the index is itself loaded from memory
	// (graph adjacency, gather/scatter).
	PatternIndirect
)

func (p Pattern) String() string {
	switch p {
	case PatternStrided:
		return "strided"
	case PatternPointerChase:
		return "pointer-chase"
	case PatternIndirect:
		return "indirect"
	}
	return "unknown"
}

// IVInfo describes a basic induction variable.
type IVInfo struct {
	Loop *cfg.Loop
	Step int64
}

// DSInfo aggregates everything the compiler knows about one data
// structure instance; this is the record handed to the runtime.
type DSInfo struct {
	DS *dsa.DataStructure

	// Pattern is the majority access pattern; Stride its byte stride
	// when strided.
	Pattern Pattern
	Stride  int64

	// UseScore = #loops + #functions accessing the structure (eq. 1).
	UseScore int
	// ReachScore is the longest caller/callee chain through a function
	// accessing the structure.
	ReachScore int

	// Loops and Funcs are the raw counts behind UseScore.
	Loops, Funcs int

	// ObjSize is the object granularity hint for the runtime (bytes):
	// element-sized objects for linked structures, page-sized blocks
	// for arrays (paper §4.2 "CaRDS guards": object sizes are guided by
	// compiler hints at ds_init).
	ObjSize int

	// AccessingFuncs lists functions touching the structure (sorted).
	AccessingFuncs []string

	// WriteFootprint lists the [lo, hi) byte ranges within one element
	// that stores to the structure may modify, coalesced and sorted.
	// Nil when a store's target bytes could not be bounded statically
	// (the structure then write-backs whole objects).
	WriteFootprint [][2]int
}

// Result is the output of the analysis pass.
type Result struct {
	Infos []*DSInfo // indexed by DS ID

	// IVs maps each function to its induction variables.
	IVs map[string]map[*ir.Reg]*IVInfo

	// InstrDS maps loads/stores/guards/calls to the data structure IDs
	// they (transitively, context-filtered) touch.
	InstrDS map[*ir.Instr][]int

	// LoopDS maps a loop header block to the DS IDs accessed anywhere
	// within the loop, including via calls. Guard versioning consults
	// this to build cards_all_local checks (Listing 3).
	LoopDS map[*ir.Block][]int

	// CFGs caches per-function control-flow info.
	CFGs map[string]*cfg.Info

	// Gathers maps a load to its address's gather chain (gather.go).
	Gathers map[*ir.Instr]*ir.Gather

	// votes tallies classified accesses per DS during attribution.
	votes map[int]*patternVotes
	// accessed records, per function, the DS IDs it touches directly or
	// transitively.
	accessed map[string]map[int]bool
}

// DefaultArrayObjSize is the object granularity for strided structures —
// the 4 KiB figure the paper uses in its char ds[4096] example.
const DefaultArrayObjSize = 4096

// ChaseObjSize is the object granularity hint for linked structures:
// small enough to avoid the I/O amplification of page-sized transfers on
// scattered nodes, large enough that nodes allocated in traversal order
// (the common case for list/map builds) amortize the fetch round trip.
// This is exactly the per-structure-size flexibility §4.2 describes
// ("CaRDS data structures can have varying object sizes based on the
// static hints given by the compiler").
const ChaseObjSize = 1024

// MinObjSize floors tiny linked-node objects so header overhead stays
// bounded.
const MinObjSize = 64

// Analyze runs the full analysis over a pool-allocated module.
func Analyze(m *ir.Module, ds *dsa.Result) *Result {
	res := &Result{
		IVs:     make(map[string]map[*ir.Reg]*IVInfo),
		InstrDS: make(map[*ir.Instr][]int),
		LoopDS:  make(map[*ir.Block][]int),
		CFGs:    make(map[string]*cfg.Info),
		Gathers: make(map[*ir.Instr]*ir.Gather),
	}
	for _, f := range m.Funcs {
		res.CFGs[f.Name] = cfg.Analyze(f)
		res.IVs[f.Name] = findInductionVars(f, res.CFGs[f.Name])
		findGathers(f, res.IVs[f.Name], res.Gathers)
	}

	res.attributeAccesses(m, ds)
	res.propagateThroughCalls(m, ds)
	res.computeLoopDS(m)
	res.score(m, ds)
	res.computeWriteFootprints(m)
	return res
}

// computeWriteFootprints derives, per data structure, the byte ranges
// within one element that stores may modify — the static fallback the
// runtime's dirty-range write-back uses when a guard carries no span.
// A store whose target offset cannot be bounded (unresolvable address,
// offset outside the element) voids the footprint of every structure it
// may touch: nil means "assume the whole object".
func (res *Result) computeWriteFootprints(m *ir.Module) {
	ranges := make(map[int][][2]int)
	unknown := make(map[int]bool)
	for _, f := range m.Funcs {
		// Single-definition map for address decomposition; registers
		// with multiple defs resolve to nil (give up on that store).
		defs := make(map[*ir.Reg]*ir.Instr)
		multi := make(map[*ir.Reg]bool)
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			if in.Dst != nil {
				if _, seen := defs[in.Dst]; seen {
					multi[in.Dst] = true
				}
				defs[in.Dst] = in
			}
			return true
		})
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			if in.Op != ir.OpStore {
				return true
			}
			ids := res.InstrDS[in]
			if len(ids) == 0 {
				return true
			}
			lo, ok := storeFieldOffset(in, defs, multi)
			width := 0
			if in.Elem != nil {
				width = in.Elem.Size()
			}
			for _, id := range ids {
				if !ok || width <= 0 {
					unknown[id] = true
					continue
				}
				info := res.Infos[id]
				es := 0
				if info.DS.Elem != nil {
					es = info.DS.Elem.Size()
				}
				if es <= 0 {
					unknown[id] = true
					continue
				}
				off := lo % es
				if off+width > es {
					// Straddles an element boundary (or a mis-modelled
					// layout): no safe per-element bound.
					unknown[id] = true
					continue
				}
				ranges[id] = append(ranges[id], [2]int{off, off + width})
			}
			return true
		})
	}
	for id, rs := range ranges {
		if unknown[id] {
			continue
		}
		res.Infos[id].WriteFootprint = coalesceRanges(rs)
	}
}

// storeFieldOffset resolves the constant byte offset of a store's
// address relative to its element base: the ConstOff of a single
// indexed GEP, or the raw offset of a base+const GEP. Returns false
// when the address is not a single resolvable GEP.
func storeFieldOffset(in *ir.Instr, defs map[*ir.Reg]*ir.Instr, multi map[*ir.Reg]bool) (int, bool) {
	r, ok := in.Addr.(*ir.Reg)
	if !ok {
		return 0, false
	}
	def := defs[r]
	if def == nil || multi[r] || def.Op != ir.OpGEP {
		return 0, false
	}
	off := def.ConstOff
	// Nested GEP (array-of-structs): fold the inner field offset.
	if br, isReg := def.Base.(*ir.Reg); isReg && def.Index == nil {
		if bdef := defs[br]; bdef != nil && !multi[br] && bdef.Op == ir.OpGEP {
			off += bdef.ConstOff
		}
	}
	if off < 0 {
		return 0, false
	}
	return off, true
}

// coalesceRanges sorts and merges overlapping or adjacent [lo, hi)
// ranges.
func coalesceRanges(rs [][2]int) [][2]int {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i][0] != rs[j][0] {
			return rs[i][0] < rs[j][0]
		}
		return rs[i][1] < rs[j][1]
	})
	out := rs[:0]
	for _, r := range rs {
		if n := len(out); n > 0 && r[0] <= out[n-1][1] {
			if r[1] > out[n-1][1] {
				out[n-1][1] = r[1]
			}
			continue
		}
		out = append(out, r)
	}
	return out
}

// findInductionVars detects basic IVs: registers updated exactly once in
// the loop by r = r + c (possibly via a temporary, which is the pattern
// the builder emits: t = add r, c; r = copy t).
func findInductionVars(f *ir.Function, info *cfg.Info) map[*ir.Reg]*IVInfo {
	ivs := make(map[*ir.Reg]*IVInfo)
	for _, loop := range info.Loops() {
		// defs[r] = instructions in the loop writing r.
		defs := make(map[*ir.Reg][]*ir.Instr)
		for b := range loop.Blocks {
			for _, in := range b.Instrs {
				if in.Dst != nil {
					defs[in.Dst] = append(defs[in.Dst], in)
				}
			}
		}
		for r, writes := range defs {
			if len(writes) != 1 || writes[0].Op != ir.OpCopy {
				continue
			}
			src, ok := writes[0].Src.(*ir.Reg)
			if !ok {
				continue
			}
			srcDefs := defs[src]
			if len(srcDefs) != 1 || srcDefs[0].Op != ir.OpBin || srcDefs[0].Kind != ir.Add {
				continue
			}
			add := srcDefs[0]
			x, xIsReg := add.X.(*ir.Reg)
			c, yIsConst := add.Y.(ir.IntConst)
			if xIsReg && yIsConst && x == r {
				ivs[r] = &IVInfo{Loop: loop, Step: c.V}
			}
		}
	}
	return ivs
}

// accessClass classifies one memory access address within its function.
type accessClass int

const (
	classPlain accessClass = iota
	classStrided
	classChase
	classIndirect
)

// classifyAddr walks the address computation of an access inside a loop.
func classifyAddr(f *ir.Function, loop *cfg.Loop, addr ir.Value, ivs map[*ir.Reg]*IVInfo,
	defsIn map[*ir.Reg]*ir.Instr) (accessClass, int64) {
	r, ok := addr.(*ir.Reg)
	if !ok {
		return classPlain, 0
	}
	def := defsIn[r]
	if def == nil {
		return classPlain, 0
	}
	switch def.Op {
	case ir.OpGEP:
		if def.Index != nil {
			if idxReg, ok := def.Index.(*ir.Reg); ok {
				// An induction variable of ANY enclosing loop yields a
				// strided pattern: inner-loop IVs step every iteration,
				// outer-loop IVs step per inner trip (fdtd's clf/tmp
				// planes are indexed by the outer iz/iy alone).
				if iv, isIV := ivs[idxReg]; isIV {
					return classStrided, int64(def.ElemSize) * iv.Step
				}
				// Index computed from a load => indirect access.
				if idxDef := defsIn[idxReg]; idxDef != nil && reachesLoad(idxDef, defsIn, 0) {
					return classIndirect, 0
				}
				// Index derived (affinely) from an IV also counts as
				// strided with unknown stride sign.
				if idxDef := defsIn[idxReg]; idxDef != nil && derivedFromIV(idxDef, ivs, loop, defsIn, 0) {
					return classStrided, int64(def.ElemSize)
				}
			}
			return classPlain, 0
		}
		// Field access: classify the base.
		if base, ok := def.Base.(*ir.Reg); ok {
			if bd := defsIn[base]; bd != nil && bd.Op == ir.OpLoad && loop.Blocks[blockOf(f, bd)] {
				return classChase, 0
			}
			cls, stride := classifyAddr(f, loop, base, ivs, defsIn)
			return cls, stride
		}
	case ir.OpLoad:
		// The pointer itself was loaded inside the loop: pointer chase.
		if loop.Blocks[blockOf(f, def)] {
			return classChase, 0
		}
	case ir.OpGuard, ir.OpCopy:
		src := def.Src
		if def.Op == ir.OpGuard {
			src = def.Addr
		}
		return classifyAddr(f, loop, src, ivs, defsIn)
	}
	return classPlain, 0
}

func reachesLoad(def *ir.Instr, defsIn map[*ir.Reg]*ir.Instr, depth int) bool {
	if depth > 8 || def == nil {
		return false
	}
	if def.Op == ir.OpLoad {
		return true
	}
	for _, op := range def.Operands() {
		if r, ok := op.(*ir.Reg); ok {
			if reachesLoad(defsIn[r], defsIn, depth+1) {
				return true
			}
		}
	}
	return false
}

func derivedFromIV(def *ir.Instr, ivs map[*ir.Reg]*IVInfo, loop *cfg.Loop,
	defsIn map[*ir.Reg]*ir.Instr, depth int) bool {
	if depth > 8 || def == nil {
		return false
	}
	for _, op := range def.Operands() {
		if r, ok := op.(*ir.Reg); ok {
			if _, isIV := ivs[r]; isIV {
				return true
			}
			if derivedFromIV(defsIn[r], ivs, loop, defsIn, depth+1) {
				return true
			}
		}
	}
	return false
}

func blockOf(f *ir.Function, target *ir.Instr) *ir.Block {
	var found *ir.Block
	f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) bool {
		if in == target {
			found = b
			return false
		}
		return true
	})
	return found
}

// patternVotes tallies classified accesses per DS.
type patternVotes struct {
	strided, chase, indirect, plain int
	strideSum                       map[int64]int
}

// attributeAccesses maps every load/store to DS IDs and casts pattern
// votes.
func (res *Result) attributeAccesses(m *ir.Module, ds *dsa.Result) {
	res.votes = make(map[int]*patternVotes)
	for _, f := range m.Funcs {
		info := res.CFGs[f.Name]
		ivs := res.IVs[f.Name]
		// Single-def map (best effort: last def wins; our builder-made
		// address chains are single-def).
		defsIn := make(map[*ir.Reg]*ir.Instr)
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			if in.Dst != nil {
				if _, dup := defsIn[in.Dst]; !dup {
					defsIn[in.Dst] = in
				}
			}
			return true
		})
		f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) bool {
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				return true
			}
			ids := ds.DSForValue(f.Name, in.Addr)
			if len(ids) == 0 {
				return true
			}
			res.InstrDS[in] = ids
			loop := info.InnermostLoop(b)
			cls, stride := classPlain, int64(0)
			if loop != nil {
				cls, stride = classifyAddr(f, loop, in.Addr, ivs, defsIn)
			}
			for _, id := range ids {
				v := res.votes[id]
				if v == nil {
					v = &patternVotes{strideSum: make(map[int64]int)}
					res.votes[id] = v
				}
				switch cls {
				case classStrided:
					v.strided++
					v.strideSum[stride]++
				case classChase:
					v.chase++
				case classIndirect:
					v.indirect++
				default:
					v.plain++
				}
			}
			return true
		})
	}
}

// propagateThroughCalls attributes callee accesses to call instructions,
// filtered per call site so that only the instances actually flowing
// through the call count (Listing 1: the k-loop call to Set counts for
// ds2 only).
func (res *Result) propagateThroughCalls(m *ir.Module, ds *dsa.Result) {
	// accessed[fn] = set of DS ids directly or transitively accessed.
	accessed := make(map[string]map[int]bool)
	for _, f := range m.Funcs {
		accessed[f.Name] = make(map[int]bool)
	}
	// Seed with direct accesses.
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			for _, id := range res.InstrDS[in] {
				accessed[f.Name][id] = true
			}
			return true
		})
	}
	// Fixpoint over calls.
	changed := true
	for changed {
		changed = false
		for _, f := range m.Funcs {
			f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
				if in.Op != ir.OpCall {
					return true
				}
				callee := m.FuncByName(in.Callee)
				if callee == nil {
					return true
				}
				visible := res.visibleAtCall(ds, f.Name, in)
				for id := range accessed[callee.Name] {
					d := ds.ByID(id)
					ok := visible[id] || (d != nil && d.Fn != "")
					if ok && !accessed[f.Name][id] {
						accessed[f.Name][id] = true
						changed = true
					}
					if ok {
						res.InstrDS[in] = appendUnique(res.InstrDS[in], id)
					}
				}
				return true
			})
		}
	}
	for _, ids := range res.InstrDS {
		sort.Ints(ids)
	}
	res.accessed = accessed
}

// visibleAtCall returns DS IDs that can flow through a specific call
// site: via pointer arguments, the returned pointer, or constant handle
// arguments added by pool allocation.
func (res *Result) visibleAtCall(ds *dsa.Result, fn string, call *ir.Instr) map[int]bool {
	out := make(map[int]bool)
	for _, a := range call.Args {
		for _, id := range ds.DSForValue(fn, a) {
			out[id] = true
		}
		// Pool-allocation handle constants name DS directly.
		if c, ok := a.(ir.IntConst); ok && c.V >= 0 && int(c.V) < len(ds.DS) {
			out[int(c.V)] = true
		}
	}
	if call.Dst != nil {
		for _, id := range ds.DSForValue(fn, call.Dst) {
			out[id] = true
		}
	}
	return out
}

// computeLoopDS fills LoopDS: for every loop, the DS touched inside it.
func (res *Result) computeLoopDS(m *ir.Module) {
	for _, f := range m.Funcs {
		info := res.CFGs[f.Name]
		for _, loop := range info.Loops() {
			set := make(map[int]bool)
			for b := range loop.Blocks {
				for _, in := range b.Instrs {
					for _, id := range res.InstrDS[in] {
						set[id] = true
					}
				}
			}
			ids := make([]int, 0, len(set))
			for id := range set {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			res.LoopDS[loop.Header] = ids
		}
	}
}

// callLoopDepth computes, per function, the deepest interprocedural loop
// nesting any call path reaches it under: a helper invoked from inside a
// doubly nested loop effectively runs its own loops at depth+2. This is
// the static stand-in for execution frequency that eq. 1's loop count
// needs to rank Listing 1's ds2 above ds1.
func (res *Result) callLoopDepth(m *ir.Module) map[string]int {
	depth := make(map[string]int, len(m.Funcs))
	changed := true
	for iter := 0; changed && iter < len(m.Funcs)+2; iter++ {
		changed = false
		for _, f := range m.Funcs {
			info := res.CFGs[f.Name]
			f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) bool {
				if in.Op != ir.OpCall {
					return true
				}
				d := depth[f.Name] + info.LoopDepth(b)
				if d > depth[in.Callee] {
					depth[in.Callee] = d
					changed = true
				}
				return true
			})
		}
	}
	return depth
}

// score computes UseScore (eq. 1), ReachScore, patterns and object-size
// hints for every data structure.
func (res *Result) score(m *ir.Module, ds *dsa.Result) {
	chain := ds.CallGraph().ChainDepth()
	res.Infos = make([]*DSInfo, len(ds.DS))
	callDepth := res.callLoopDepth(m)

	// Count loops per DS: a loop counts if its body touches the DS
	// (raw count), and with interprocedural nesting weight for the use
	// score (a loop inside a hot call chain outweighs a top-level scan).
	loopCount := make(map[int]int)
	loopWeight := make(map[int]int)
	for _, f := range m.Funcs {
		info := res.CFGs[f.Name]
		for _, loop := range info.Loops() {
			ids := res.LoopDS[loop.Header]
			for _, id := range ids {
				loopCount[id]++
				loopWeight[id] += loop.Depth + callDepth[f.Name]
			}
		}
	}
	// Count functions per DS (direct or transitive access).
	funcCount := make(map[int]int)
	funcNames := make(map[int][]string)
	for fn, set := range res.accessed {
		for id := range set {
			funcCount[id]++
			funcNames[id] = append(funcNames[id], fn)
		}
	}
	// Reach uses DIRECT loads/stores only: the Maximum Reach policy
	// pins "data structures used in the top k functions with long
	// caller/callee chains" — a function that merely calls into an
	// accessor does not itself use the structure, and counting
	// transitive access would give every structure main's chain depth.
	reach := make(map[int]int)
	for _, f := range m.Funcs {
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				return true
			}
			for _, id := range res.InstrDS[in] {
				if chain[f.Name] > reach[id] {
					reach[id] = chain[f.Name]
				}
			}
			return true
		})
	}

	for i, d := range ds.DS {
		info := &DSInfo{
			DS:         d,
			Loops:      loopCount[d.ID],
			Funcs:      funcCount[d.ID],
			UseScore:   loopWeight[d.ID] + funcCount[d.ID],
			ReachScore: reach[d.ID],
		}
		sort.Strings(funcNames[d.ID])
		info.AccessingFuncs = funcNames[d.ID]

		if v := res.votes[d.ID]; v != nil {
			switch {
			case v.chase > 0 && v.chase >= v.strided:
				info.Pattern = PatternPointerChase
			case v.indirect > v.strided:
				info.Pattern = PatternIndirect
			case v.strided > 0:
				info.Pattern = PatternStrided
				// Majority stride.
				best, bestN := int64(0), 0
				for s, n := range v.strideSum {
					if n > bestN {
						best, bestN = s, n
					}
				}
				info.Stride = best
			}
		}
		if d.Recursive {
			// Linked structures override to pointer-chase: their objects
			// are elements, not pages.
			if info.Pattern == PatternUnknown || info.Pattern == PatternStrided {
				info.Pattern = PatternPointerChase
			}
		}
		info.ObjSize = objSize(d, info.Pattern)
		res.Infos[i] = info
	}
}

func objSize(d *dsa.DataStructure, p Pattern) int {
	if p == PatternPointerChase || d.Recursive {
		sz := ChaseObjSize
		if d.Elem != nil && d.Elem.Size() > sz {
			sz = d.Elem.Size()
		}
		return sz
	}
	return DefaultArrayObjSize
}

func appendUnique(xs []int, v int) []int {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}
