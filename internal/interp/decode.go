package interp

import (
	"fmt"
	"math"

	"cards/internal/ir"
)

// opcode is the decoded instruction set: ir.Op with the per-execution
// decisions (constant or register? which operator? handle or not? read
// or write guard? ROI marker or real callee?) already taken.
type opcode uint8

const (
	opBad opcode = iota // an ir.Op (or ir.BinKind) the machine cannot execute
	// dst = a <op> b: one opcode per ir.BinKind, in its order.
	opAdd
	opSub
	opMul
	opDiv
	opRem
	opAnd
	opOr
	opXor
	opShl
	opShr
	opEQ
	opNE
	opLT
	opLE
	opGT
	opGE
	opFAdd
	opFSub
	opFMul
	opFDiv
	opFLT
	opIToF
	opMove     // dst = a (OpConst and OpCopy alike: constants live in frame slots)
	opAlloc    // dst = AllocLocal(a * x)
	opDSAlloc  // dst = DSAlloc(handle b, a * x)
	opLoad     // dst = word at a
	opStore    // word at a = b
	opGEP      // dst = a + b*x + y
	opGEPLoad  // opGEP, then the guard and the load in the next two slots
	opGEPStore // opGEP, then the guard and the store in the next two slots
	opGEPOnce  // opGEPStore whose guard result has no other use: GuardStore
	opGuardR   // dst = guard(a) with write span [x, y)
	opGuardW   //
	opAllLocal // dst = all_local(src.DSRefs)
	opPrefetch // prefetch hint for a
	opCall     // dst = callee(args[x:y])
	opROIBegin // region-of-interest markers (calls the machine intercepts)
	opROIEnd   //
	opRet      // return a
	opBr       // pc = x if a != 0, else y
	opJmp      // pc = x
)

// The operator opcodes mirror ir.BinKind one to one.
var _ = [1]int{}[opIToF-opAdd-opcode(ir.IToF)]

// inst is one decoded instruction. dst, a and b index the activation's
// frame; an instruction without a result writes the frame's sink slot,
// one without an operand reads a pooled zero, so exec never tests for
// absence.
type inst struct {
	dst, a, b int32
	op        opcode
	x, y      int64 // immediates, branch-target pcs, or a call's span of function.args
	callee    *function
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
	args   []int32 // every call's argument slots, back to back
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

	// uses counts the static reads of each register, for fusedAccess.
	uses := make([]int32, nregs)
	start := make(map[*ir.Block]int64, len(f.Blocks))
	n := 0
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			for _, v := range in.Operands() {
				if r, ok := v.(*ir.Reg); ok {
					uses[r.ID]++
				}
			}
		}
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
		for j, in := range blk.Instrs {
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
				d.a, d.b = slot(in, in.X), slot(in, in.Y)
				if in.Kind >= ir.Add && in.Kind <= ir.IToF {
					d.op = opAdd + opcode(in.Kind)
				}
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
				d.op, d.a, d.b = fusedAccess(blk.Instrs[j:], uses), slot(in, in.Base), constant(0)
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
					d.op, d.callee, d.x = opCall, fns[in.Callee], int64(len(out.args))
					for _, a := range in.Args {
						out.args = append(out.args, slot(in, a))
					}
					d.y = int64(len(out.args))
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

// fusedAccess returns the opcode for the GEP at s[0]: opGEPLoad or
// opGEPStore when s[1] guards the GEP's result and s[2] loads or stores
// through the guard's — the triple the guard pass emits for a remotable
// access — else opGEP; opGEPOnce when the store's address is the
// only use (uses, by register) of a write guard's result. s is the rest
// of one block, so a triple never spans two. The guard and access keep
// their own slots and decoded form: exec falls back to them when the
// step budget cannot cover all three.
func fusedAccess(s []*ir.Instr, uses []int32) opcode {
	if len(s) < 3 || s[0].Dst == nil || s[1].Op != ir.OpGuard || s[1].Dst == nil ||
		s[1].Addr != ir.Value(s[0].Dst) || s[2].Addr != ir.Value(s[1].Dst) {
		return opGEP
	}
	switch s[2].Op {
	case ir.OpLoad:
		return opGEPLoad
	case ir.OpStore:
		if s[1].IsWrite && uses[s[1].Dst.ID] == 1 {
			return opGEPOnce
		}
		return opGEPStore
	}
	return opGEP
}
