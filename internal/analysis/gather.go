package analysis

import (
	"cards/internal/cfg"
	"cards/internal/ir"
)

// findGathers records in out the gather chain of every load in f whose
// address is one, by the chain rule of DESIGN.md §5: bfs's col[j] roots
// at the frontier loop's q through j = row[fcur[q]].
func findGathers(f *ir.Function, ivs map[*ir.Reg]*IVInfo, out map[*ir.Instr]*ir.Gather) {
	defs := make(map[*ir.Reg][]*ir.Instr)
	where := make(map[*ir.Instr]*ir.Block)
	f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) bool {
		if in.Dst != nil {
			defs[in.Dst] = append(defs[in.Dst], in)
			where[in] = b
		}
		return true
	})
	// one returns v's one definition outside l (anywhere when l is nil).
	one := func(v ir.Value, l *cfg.Loop) (d *ir.Instr) {
		r, _ := v.(*ir.Reg)
		for _, c := range defs[r] {
			if l == nil || !l.Blocks[where[c]] {
				if d != nil {
					return nil
				}
				d = c
			}
		}
		return d
	}
	// varies reports whether v is defined inside l.
	varies := func(v ir.Value, l *cfg.Loop) bool {
		r, _ := v.(*ir.Reg)
		for _, c := range defs[r] {
			if l.Blocks[where[c]] {
				return true
			}
		}
		return false
	}
	f.Instrs(func(at *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op != ir.OpLoad {
			return true
		}
		var steps []ir.GatherStep // innermost first
		x, addr := in.Addr, true
		for hops := 0; hops < 16 && len(steps) <= 4; hops++ {
			r, _ := x.(*ir.Reg)
			var l *cfg.Loop // r's loop, if r is an induction variable around the load
			if iv := ivs[r]; iv != nil && iv.Loop.Blocks[at] {
				l = iv.Loop
				c := one(l.Header.Term().Cond, nil)
				if !addr && len(steps) > 1 && iv.Step > 0 && c != nil && c.Op == ir.OpBin &&
					c.Kind == ir.LT && c.X == x && !varies(c.Y, l) {
					g := &ir.Gather{IV: r, Bound: c.Y, Step: iv.Step}
					for i := len(steps) - 1; i >= 0; i-- {
						if varies(steps[i].Base, l) {
							return true
						}
						g.Steps = append(g.Steps, steps[i])
					}
					out[in] = g
					return true
				}
			}
			d := one(x, l)
			switch {
			case d == nil:
				return true
			case d.Op == ir.OpCopy:
				x = d.Src
			case addr && d.Op == ir.OpGEP && d.Index != nil:
				steps = append(steps, ir.GatherStep{Base: d.Base, Scale: int64(d.ElemSize), Off: int64(d.ConstOff)})
				x, addr = d.Index, false
			case !addr && d.Op == ir.OpLoad:
				x, addr = d.Addr, true
			case !addr && d.Op == ir.OpBin && d.Kind == ir.Add:
				c, ok := d.Y.(ir.IntConst)
				if !ok {
					return true
				}
				steps[len(steps)-1].Off += c.V * steps[len(steps)-1].Scale
				x = d.X
			default:
				return true
			}
		}
		return true
	})
}
