// Package guards implements the CaRDS instrumentation passes (paper §4.1):
//
//   - Guard insertion: every load/store that may touch a remotable data
//     structure is preceded by a cards_guard, the custody check + deref
//     of Figure 3 / Listing 4. The guard yields a localized address the
//     access then uses.
//   - Redundant guard elimination: within a basic block, accesses that
//     provably hit the same object reuse one guard. Unlike TrackFM,
//     whose elimination applies only to induction variables, this works
//     for arbitrary base+offset aliases (struct fields, repeated
//     dereferences of the same pointer) — "allowing it to work with more
//     complex data structures".
//   - Code versioning (selective remoting, Listing 3): loops containing
//     guards are duplicated; a cards_all_local check in the preheader
//     dispatches to the uninstrumented clone when every data structure
//     the loop touches is currently local, eliding all guard overhead.
package guards

import (
	"cards/internal/analysis"
	"cards/internal/cfg"
	"cards/internal/dsa"
	"cards/internal/ir"
)

// Result reports what the passes did.
type Result struct {
	// GuardsInserted counts cards_guard instructions emitted.
	GuardsInserted int
	// GuardsElided counts accesses that reused an earlier guard via
	// redundant guard elimination.
	GuardsElided int
	// LoopsVersioned counts loops that received an uninstrumented clone.
	LoopsVersioned int
}

// Options tunes the passes (used by the TrackFM baseline and ablations).
type Options struct {
	// ElideRedundant enables redundant guard elimination.
	ElideRedundant bool
	// Version enables code versioning / selective remoting.
	Version bool
	// InductionOnlyElision restricts RGE to induction-variable bases,
	// mimicking TrackFM's narrower optimization.
	InductionOnlyElision bool
}

// DefaultOptions returns the full CaRDS configuration.
func DefaultOptions() Options {
	return Options{ElideRedundant: true, Version: true}
}

// Transform instruments m in place. It must run after pool allocation
// (so DS identity is known) and consumes the analysis result for loop DS
// sets and object sizes.
func Transform(m *ir.Module, ds *dsa.Result, an *analysis.Result, opts Options) *Result {
	res := &Result{}
	for _, f := range m.Funcs {
		res.insertGuards(f, ds, an, opts)
	}
	if opts.Version {
		for _, f := range m.Funcs {
			res.versionLoops(f, an)
		}
	}
	ir.MustVerify(m)
	return res
}

// guardKey identifies an already-guarded object within a block.
type guardKey struct {
	base    ir.Value
	index   ir.Value
	objSlot int
	write   bool
}

// guardEntry is an active guard covering an object.
type guardEntry struct {
	guard *ir.Instr
	// off is the byte offset (within the object) the guard's address
	// points at; reuses at other offsets add the delta via a GEP.
	off int
}

// insertGuards instruments one function.
func (res *Result) insertGuards(f *ir.Function, ds *dsa.Result, an *analysis.Result, opts Options) {
	for _, b := range f.Blocks {
		// active guards in this block, separately for read/write
		// coverage: a write guard covers reads, not vice versa.
		active := make(map[guardKey]*guardEntry)

		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Op != ir.OpLoad && in.Op != ir.OpStore {
				// Calls may remote/evict objects; conservatively drop
				// guard coverage across them.
				if in.Op == ir.OpCall {
					active = make(map[guardKey]*guardEntry)
				}
				continue
			}
			ids := an.InstrDS[in]
			if len(ids) == 0 {
				continue // provably non-remotable memory
			}
			isWrite := in.Op == ir.OpStore

			objSize := objSizeFor(an, ids)
			base, index, off, gepElem := addrParts(f, in.Addr)

			// Elision is sound only when the static key provably maps to
			// one runtime object: either a pure field offset within one
			// allocation (allocations never straddle objects), or an
			// indexed element whose size divides the object size (each
			// element then lies in one object).
			elidable := base != nil && objSize > 0
			var slot int
			if index != nil {
				if gepElem > 0 && objSize%gepElem == 0 && off < gepElem {
					slot = 0 // same element => same object
				} else {
					elidable = false
				}
			} else {
				slot = off / objSize
			}

			var covered *guardEntry
			var coveredBy guardKey
			// TrackFM-style InductionOnlyElision elides only when indexed
			// by an IV. A write guard covers both kinds; a read guard
			// covers reads.
			if opts.ElideRedundant && elidable && (!opts.InductionOnlyElision || isIVIndex(an, f, index)) {
				wk := guardKey{base, index, slot, true}
				rk := guardKey{base, index, slot, false}
				if e, ok := active[wk]; ok {
					covered, coveredBy = e, wk
				} else if e, ok := active[rk]; ok && !isWrite {
					covered, coveredBy = e, rk
				}
			}

			if covered != nil {
				// Reuse: rewrite the address to the guard's localized
				// result, offset by the static delta.
				res.GuardsElided++
				delta := off - covered.off
				if isWrite && coveredBy.write {
					// The covering write guard now also vouches for this
					// store: widen its written span to include it.
					g := covered.guard
					if g.GHi > g.GLo {
						g.GLo = min(g.GLo, delta)
						g.GHi = max(g.GHi, delta+in.Elem.Size())
					}
				}
				var newAddr ir.Value = covered.guard.Dst
				if delta != 0 {
					g := ir.NewInstr(ir.OpGEP)
					g.Base = covered.guard.Dst
					g.ElemSize = 0
					g.ConstOff = delta
					g.Dst = f.NewReg("", ir.Ptr(in.Elem))
					b.InsertBefore(i, g)
					i++
					newAddr = g.Dst
				}
				in.Addr = newAddr
				continue
			}

			// Emit a fresh guard before the access.
			g := ir.NewInstr(ir.OpGuard)
			g.Addr = in.Addr
			g.IsWrite = isWrite
			if isWrite && in.Elem != nil {
				// The store's written span relative to the guarded
				// address: the compiler-aided seed of the runtime's
				// dirty rectangle (dirty-range write-back).
				g.GLo, g.GHi = 0, in.Elem.Size()
			}
			g.DSRefs = append([]int(nil), ids...)
			g.Gather = an.Gathers[in]
			g.Dst = f.NewReg("", ir.Ptr(in.Elem))
			b.InsertBefore(i, g)
			i++
			in.Addr = g.Dst
			res.GuardsInserted++

			if opts.ElideRedundant && elidable {
				active[guardKey{base, index, slot, isWrite}] =
					&guardEntry{guard: g, off: off}
			}
		}
	}
}

// objSizeFor returns the common object size of the candidate structures,
// or 0 when they disagree (no safe elision window).
func objSizeFor(an *analysis.Result, ids []int) int {
	size := 0
	for _, id := range ids {
		if id < 0 || id >= len(an.Infos) {
			return 0
		}
		s := an.Infos[id].ObjSize
		if size == 0 {
			size = s
		} else if size != s {
			return 0
		}
	}
	return size
}

// addrParts decomposes an address into (base, index, constOff, gepElem)
// when it is a single GEP over a base register; otherwise the address
// itself is the base at offset 0. gepElem is the indexed element stride
// (0 when index is nil).
func addrParts(f *ir.Function, addr ir.Value) (base ir.Value, index ir.Value, off, gepElem int) {
	r, ok := addr.(*ir.Reg)
	if !ok {
		return addr, nil, 0, 0
	}
	var def *ir.Instr
	f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Dst == r {
			if def == nil {
				def = in
			} else {
				def = nil // multiple defs: give up
				return false
			}
		}
		return true
	})
	if def != nil && def.Op == ir.OpGEP {
		// Nested GEP (array-of-structs): fold one level.
		if br, ok := def.Base.(*ir.Reg); ok {
			var bdef *ir.Instr
			count := 0
			f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
				if in.Dst == br {
					bdef = in
					count++
				}
				return true
			})
			if count == 1 && bdef.Op == ir.OpGEP && bdef.Index != nil && def.Index == nil {
				return bdef.Base, bdef.Index, bdef.ConstOff + def.ConstOff, bdef.ElemSize
			}
		}
		return def.Base, def.Index, def.ConstOff, def.ElemSize
	}
	return addr, nil, 0, 0
}

// isIVIndex reports whether index is an induction variable of some loop
// in f (the only case TrackFM's elision handles).
func isIVIndex(an *analysis.Result, f *ir.Function, index ir.Value) bool {
	r, ok := index.(*ir.Reg)
	if !ok {
		return false
	}
	_, isIV := an.IVs[f.Name][r]
	return isIV
}

// versionLoops applies code versioning to every outermost loop of f that
// contains guards (Listing 3).
func (res *Result) versionLoops(f *ir.Function, an *analysis.Result) {
	info := an.CFGs[f.Name]
	for _, loop := range info.Loops() {
		if loop.Parent != nil {
			continue // version outermost loops; clones include children
		}
		if !loopHasGuards(loop) {
			continue
		}
		dsIDs := an.LoopDS[loop.Header]
		if len(dsIDs) == 0 {
			continue
		}
		ph := loop.Preheader(info)
		if ph == nil {
			continue
		}
		t := ph.Term()
		if t == nil || t.Op != ir.OpJmp || t.Target != loop.Header {
			continue
		}

		clonedHeader := cloneLoopUnguarded(f, loop)

		// Rewrite the preheader: al = cards_all_local(ds...);
		// br al, fast, guarded.
		al := ir.NewInstr(ir.OpAllLocal)
		al.DSRefs = append([]int(nil), dsIDs...)
		al.Dst = f.NewReg("", ir.I64())
		ph.InsertBefore(len(ph.Instrs)-1, al)

		t.Op = ir.OpBr
		t.Cond = al.Dst
		t.Then = clonedHeader
		t.Else = loop.Header
		t.Target = nil
		res.LoopsVersioned++
	}
}

func loopHasGuards(loop *cfg.Loop) bool {
	for b := range loop.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGuard {
				return true
			}
		}
	}
	return false
}

// cloneLoopUnguarded deep-copies the loop body, strips guards and
// prefetch hints (uses of a guard's result revert to its raw address),
// and returns the cloned header. Registers are shared between the two
// versions: only one version executes per loop entry, so the non-SSA
// register file needs no renaming.
func cloneLoopUnguarded(f *ir.Function, loop *cfg.Loop) *ir.Block {
	// Deterministic block order: function order filtered by membership.
	var blocks []*ir.Block
	for _, b := range f.Blocks {
		if loop.Blocks[b] {
			blocks = append(blocks, b)
		}
	}

	// Map from each guard's destination register to the raw address the
	// guard localized; the unguarded clone uses addresses directly.
	strip := make(map[*ir.Reg]ir.Value)
	for _, b := range blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpGuard && in.Dst != nil {
				strip[in.Dst] = in.Addr
			}
		}
	}
	// Resolve chains (a guard over an address produced by another
	// guard's RGE rewrite is fully unwound).
	resolve := func(v ir.Value) ir.Value {
		for {
			r, ok := v.(*ir.Reg)
			if !ok {
				return v
			}
			nv, mapped := strip[r]
			if !mapped {
				return v
			}
			v = nv
		}
	}

	cloneOf := make(map[*ir.Block]*ir.Block, len(blocks))
	for _, b := range blocks {
		cloneOf[b] = f.NewBlock(b.Name + ".fast")
	}
	mapBlock := func(b *ir.Block) *ir.Block {
		if c, ok := cloneOf[b]; ok {
			return c
		}
		return b // exits stay shared
	}

	for _, b := range blocks {
		nb := cloneOf[b]
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpGuard, ir.OpPrefetch:
				continue // stripped in the fast version
			}
			c := *in // shallow copy of the fat node
			c.Args = append([]ir.Value(nil), in.Args...)
			c.DSRefs = append([]int(nil), in.DSRefs...)
			c.X = resolve(c.X)
			c.Y = resolve(c.Y)
			c.Src = resolve(c.Src)
			c.Count = resolve(c.Count)
			c.Addr = resolve(c.Addr)
			c.Base = resolve(c.Base)
			c.Index = resolve(c.Index)
			c.Cond = resolve(c.Cond)
			c.DSHandle = resolve(c.DSHandle)
			for i := range c.Args {
				c.Args[i] = resolve(c.Args[i])
			}
			if c.Then != nil {
				c.Then = mapBlock(c.Then)
			}
			if c.Else != nil {
				c.Else = mapBlock(c.Else)
			}
			if c.Target != nil {
				c.Target = mapBlock(c.Target)
			}
			nb.Append(&c)
		}
	}
	return cloneOf[loop.Header]
}
