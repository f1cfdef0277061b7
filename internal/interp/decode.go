package interp

import (
	"fmt"
	"math"

	"cards/internal/ir"
)

// opcode is the decoded instruction set: ir.Op with the per-execution
// decisions (constant or register? handle or not? read or write guard?
// ROI marker or real callee?) already taken.
type opcode uint8

const (
	opBad      opcode = iota // an ir.Op the machine cannot execute
	opMove                   // dst = a (OpConst and OpCopy alike: constants live in frame slots)
	opBin                    // dst = a <kind> b
	opAlloc                  // dst = AllocLocal(a * x)
	opDSAlloc                // dst = DSAlloc(handle b, a * x)
	opLoad                   // dst = word at a
	opStore                  // word at a = b
	opGEP                    // dst = a + b*x + y
	opGuardR                 // dst = guard(a) with write span [x, y)
	opGuardW                 //
	opAllLocal               // dst = all_local(src.DSRefs)
	opPrefetch               // prefetch hint for a
	opCall                   // dst = callee(args...)
	opROIBegin               // region-of-interest markers (calls the machine intercepts)
	opROIEnd                 //
	opRet                    // return a
	opBr                     // pc = x if a != 0, else y
	opJmp                    // pc = x
)

// inst is one decoded instruction. dst, a, b and args index the
// activation's frame; an instruction without a result writes the
// frame's sink slot, one without an operand reads a pooled zero, so
// exec never tests for absence.
type inst struct {
	dst, a, b int32
	op        opcode
	kind      ir.BinKind
	x, y      int64 // immediates, or branch-target pcs
	callee    *function
	args      []int32
	src       *ir.Instr // for error text (and DSRefs)
}

// function is one decoded ir.Function. Its frame is laid out as
//
//	[ registers (by Reg.ID) | sink | constant pool ]
//
// and call re-initialises it on every activation: registers zeroed, pool
// copied in. Blocks are laid end to end in code, each ending in its
// terminator, so pc+1 is always the next instruction of the same block.
type function struct {
	name   string
	code   []inst
	params []int32 // parameter slots, in order
	poolAt int     // index of the first pool slot (registers + sink below it)
	pool   []uint64
	frame  int // poolAt + len(pool)
}

// decode translates every function of a verified module and returns
// main (nil if the module has none).
func decode(mod *ir.Module) (*function, error) {
	fns := make(map[string]*function, len(mod.Funcs))
	for _, f := range mod.Funcs {
		fns[f.Name] = &function{name: f.Name}
	}
	for _, f := range mod.Funcs {
		if err := decodeFunc(fns[f.Name], f, fns); err != nil {
			return nil, err
		}
	}
	return fns["main"], nil
}

func decodeFunc(out *function, f *ir.Function, fns map[string]*function) error {
	nregs := len(f.Regs())
	sink := int32(nregs)
	out.poolAt = nregs + 1
	for _, p := range f.Params {
		out.params = append(out.params, int32(p.ID))
	}

	pooled := make(map[uint64]int32)
	constant := func(bits uint64) int32 {
		slot, ok := pooled[bits]
		if !ok {
			slot = int32(out.poolAt + len(out.pool))
			out.pool = append(out.pool, bits)
			pooled[bits] = slot
		}
		return slot
	}
	var bad error
	slot := func(in *ir.Instr, v ir.Value) int32 {
		switch vv := v.(type) {
		case *ir.Reg:
			return int32(vv.ID)
		case ir.IntConst:
			return constant(uint64(vv.V))
		case ir.FloatConst:
			return constant(math.Float64bits(vv.V))
		}
		if bad == nil {
			bad = fmt.Errorf("interp: @%s %s: unknown value %T", f.Name, in, v)
		}
		return sink
	}

	start := make(map[*ir.Block]int64, len(f.Blocks))
	n := 0
	for _, blk := range f.Blocks {
		// Verify guarantees this; decoding relies on it (a block that did
		// not end in a terminator would run on into its neighbour).
		if blk.Term() == nil {
			return fmt.Errorf("interp: fell off block %s in @%s", blk.Name, f.Name)
		}
		start[blk] = int64(n)
		n += len(blk.Instrs)
	}

	out.code = make([]inst, 0, n)
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			d := inst{dst: sink, src: in}
			if in.Dst != nil {
				d.dst = int32(in.Dst.ID)
			}
			switch in.Op {
			case ir.OpConst:
				d.op = opMove
				if in.IsFloat {
					d.a = constant(math.Float64bits(in.FloatVal))
				} else {
					d.a = constant(uint64(in.IntVal))
				}
			case ir.OpCopy:
				d.op, d.a = opMove, slot(in, in.Src)
			case ir.OpBin:
				d.op, d.kind, d.a, d.b = opBin, in.Kind, slot(in, in.X), slot(in, in.Y)
			case ir.OpAlloc:
				d.op, d.a, d.x = opAlloc, slot(in, in.Count), int64(in.Elem.Size())
				if in.DSHandle != nil {
					d.op, d.b = opDSAlloc, slot(in, in.DSHandle)
				}
			case ir.OpLoad:
				d.op, d.a = opLoad, slot(in, in.Addr)
			case ir.OpStore:
				d.op, d.a, d.b = opStore, slot(in, in.Addr), slot(in, in.Src)
			case ir.OpGEP:
				d.op, d.a, d.b = opGEP, slot(in, in.Base), constant(0)
				if in.Index != nil {
					d.b = slot(in, in.Index)
				}
				d.x, d.y = int64(in.ElemSize), int64(in.ConstOff)
			case ir.OpGuard:
				d.op = opGuardR
				if in.IsWrite {
					d.op = opGuardW
				}
				d.a, d.x, d.y = slot(in, in.Addr), int64(in.GLo), int64(in.GHi)
			case ir.OpAllLocal:
				d.op = opAllLocal
			case ir.OpPrefetch:
				d.op, d.a = opPrefetch, slot(in, in.Addr)
			case ir.OpCall:
				switch in.Callee {
				case ROIBegin:
					d.op = opROIBegin
				case ROIEnd:
					d.op = opROIEnd
				default:
					d.op, d.callee = opCall, fns[in.Callee]
					for _, a := range in.Args {
						d.args = append(d.args, slot(in, a))
					}
				}
			case ir.OpRet:
				d.op, d.a = opRet, constant(0)
				if in.Src != nil {
					d.a = slot(in, in.Src)
				}
			case ir.OpBr:
				d.op, d.a, d.x, d.y = opBr, slot(in, in.Cond), start[in.Then], start[in.Else]
			case ir.OpJmp:
				d.op, d.x = opJmp, start[in.Target]
			}
			out.code = append(out.code, d)
		}
	}
	out.frame = out.poolAt + len(out.pool)
	return bad
}
