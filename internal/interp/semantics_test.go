package interp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/prefetch"
)

// runErr runs main, which must trap, runs times on one machine, and
// returns the machine's stats and the virtual clock at the moment it
// last stopped, with the last error. tagged registers structure 0 as
// remotable, the way pool allocation would have.
func runErr(t *testing.T, m *ir.Module, opts Options, tagged bool, runs int) (Stats, uint64, error) {
	t.Helper()
	m.AssignSites()
	ir.MustVerify(m)
	rt := newRT()
	if tagged {
		rt.RegisterDS(0, farmem.DSMeta{ObjSize: 4096})
		rt.SetPlacement(0, farmem.PlaceRemotable)
	}
	mach, err := New(m, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < max(runs, 1); i++ {
		if _, err = mach.Run(); err == nil {
			t.Fatal("program ran to completion, want a trap")
		}
	}
	return mach.Stats(), rt.Clock().Now(), err
}

// appendGuard appends a guard of addr, with the write span of one word,
// and returns its result register.
func appendGuard(b *ir.Builder, addr ir.Value, write bool) *ir.Reg {
	g := ir.NewInstr(ir.OpGuard)
	g.Addr, g.IsWrite, g.GLo, g.GHi = addr, write, 0, 8
	g.Dst = b.Func().NewReg("", ir.Ptr(ir.I64()))
	b.Block().Append(g)
	return g.Dst
}

// guardedAccess appends what the guard pass emits for a remotable access
// to word i of arr: GEP, guard, then a store of v (or, v nil, a load),
// three consecutive slots the decoder fuses. It returns the GEP's, the
// guard's and the load's registers.
func guardedAccess(b *ir.Builder, arr, i ir.Value, write bool, v ir.Value) (p, g, ld *ir.Reg) {
	p = b.GEP(arr, i, 8, 0)
	g = appendGuard(b, p, write)
	if v != nil {
		b.Store(ir.I64(), v, g)
		return p, g, nil
	}
	return p, g, b.Load(ir.I64(), g)
}

// TestTrapTextAndTripPoint pins, for the traps a program's own values
// cause and for the step limit landing inside a fused guarded access, the
// exact error text, the number of instructions counted when it fired and
// the virtual time charged up to it (TestStepLimit and
// TestRecursionDepthLimit do the same for the two resource limits). The
// values are those of an interpreter that charged every instruction as it
// dispatched it: the tree-walking one, and the pre-decoded one before it
// settled on observe and fused guarded accesses.
func TestTrapTextAndTripPoint(t *testing.T) {
	model := newRT().Model()
	instr := model.Instr
	// A remotable structure: allocate it, store 7 to word 3 through a
	// fused triple (the guard materialises the object), load it back
	// through another, and divide by it minus 7.
	remotable := func(m *ir.Module) *ir.Builder {
		b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
		arr := b.Alloc(ir.I64(), ir.CI(512))
		b.Block().Instrs[0].DSHandle = ir.CI(0)
		guardedAccess(b, arr, ir.CI(3), true, ir.CI(7))
		_, _, v := guardedAccess(b, arr, ir.CI(3), false, nil)
		b.Ret(b.Div(ir.CI(1), b.Sub(v, ir.CI(7))))
		return b
	}
	tripped := "interp: step limit (%d) exceeded"
	writeGuard := model.CustodyCheck + model.DerefLocalWrite
	readGuard := model.CustodyCheck + model.DerefLocalRead
	cases := []struct {
		name   string
		build  func(m *ir.Module)
		opts   Options
		tagged bool // structure 0 registered remotable
		runs   int  // Run calls on one machine, each trapping (0: one)
		text   string
		instrs uint64 // Stats.Instructions at the trap, each but a refused one charged to the clock
		extra  uint64 // virtual time charged by anything else (allocator and guard calls)
	}{
		{
			name: "division by zero",
			build: func(m *ir.Module) {
				b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
				x := b.Add(ir.CI(40), ir.CI(2))
				b.Ret(b.Div(x, b.Sub(x, x)))
			},
			text:   "interp: @main %r2 = div %r0, %r1: integer division by zero",
			instrs: 3,
		},
		{
			name: "remainder by zero in a callee",
			build: func(m *ir.Module) {
				f := m.NewFunc("f", ir.I64(), ir.P("d", ir.I64()))
				fb := ir.NewBuilder(f)
				fb.Ret(fb.Rem(ir.CI(7), f.Params[0]))
				b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
				b.Ret(b.Call(f, ir.CI(0)))
			},
			text:   "interp: @f %r1 = rem 7, %d: integer remainder by zero",
			instrs: 2,
		},
		{
			name: "negative alloc count",
			build: func(m *ir.Module) {
				b := ir.NewBuilder(m.NewFunc("main", ir.Void()))
				b.Alloc(ir.I64(), ir.CI(4))
				b.Alloc(ir.I64(), b.Sub(ir.CI(1), ir.CI(4)))
				b.Ret(nil)
			},
			text:   "interp: @main: negative alloc count -3",
			instrs: 3,
			extra:  newRT().Model().AllocLocal,
		},
		{
			name:   "step limit on a fused triple's GEP",
			build:  func(m *ir.Module) { remotable(m) },
			opts:   Options{MaxSteps: 1},
			tagged: true,
			text:   fmt.Sprintf(tripped, 1),
			instrs: 2,
			extra:  model.AllocRemote,
		},
		{
			name:   "step limit on a fused triple's guard",
			build:  func(m *ir.Module) { remotable(m) },
			opts:   Options{MaxSteps: 2},
			tagged: true,
			text:   fmt.Sprintf(tripped, 2),
			instrs: 3,
			extra:  model.AllocRemote,
		},
		{
			name:   "step limit on a fused triple's store",
			build:  func(m *ir.Module) { remotable(m) },
			opts:   Options{MaxSteps: 3},
			tagged: true,
			text:   fmt.Sprintf(tripped, 3),
			instrs: 4,
			extra:  model.AllocRemote + writeGuard,
		},
		{
			name:   "step limit on the second triple's load",
			build:  func(m *ir.Module) { remotable(m) },
			opts:   Options{MaxSteps: 6},
			tagged: true,
			text:   fmt.Sprintf(tripped, 6),
			instrs: 7,
			extra:  model.AllocRemote + writeGuard + readGuard,
		},
		{
			name:   "a second Run on a machine that tripped",
			build:  func(m *ir.Module) { remotable(m) },
			opts:   Options{MaxSteps: 3},
			tagged: true,
			runs:   2,
			text:   fmt.Sprintf(tripped, 3),
			instrs: 5,
			extra:  model.AllocRemote + writeGuard,
		},
		{
			name:   "division by zero right after a fused triple",
			build:  func(m *ir.Module) { remotable(m) },
			tagged: true,
			text:   "interp: @main %r7 = div 1, %r6: integer division by zero",
			instrs: 9,
			extra:  model.AllocRemote + writeGuard + readGuard,
		},
		{
			name: "guard trap inside a fused triple",
			build: func(m *ir.Module) {
				b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
				arr := b.Alloc(ir.I64(), ir.CI(8))
				b.Block().Instrs[0].DSHandle = ir.CI(0)
				_, _, v := guardedAccess(b, arr, ir.CI(9), false, nil) // past the structure's 64 bytes
				b.Ret(v)
			},
			tagged: true,
			text:   "interp: @main %r2 = cards_guard.r %r1: farmem: bad address 0x8000000000000048: offset beyond DS extent 64",
			instrs: 3,
			extra:  model.AllocRemote + model.CustodyCheck,
		},
		{
			name: "load trap inside a fused triple",
			build: func(m *ir.Module) {
				b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
				_, _, v := guardedAccess(b, ir.CI(1<<40), ir.CI(1), false, nil) // untagged, out of local bounds
				b.Ret(v)
			},
			text:   "interp: @main %r2 = load i64, %r1: farmem: bad address 0x10000000008: out of local bounds",
			instrs: 3,
			extra:  model.CustodyCheck,
		},
		{
			name: "unguarded tagged access right after a fused triple",
			build: func(m *ir.Module) {
				b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
				arr := b.Alloc(ir.I64(), ir.CI(512))
				b.Block().Instrs[0].DSHandle = ir.CI(0)
				p, _, _ := guardedAccess(b, arr, ir.CI(3), true, ir.CI(7))
				b.Ret(b.Load(ir.I64(), p)) // the GEP's result is still tagged
			},
			tagged: true,
			text:   "interp: @main %r3 = load i64, %r1: farmem: unguarded access to remotable address 0x8000000000000018",
			instrs: 5,
			extra:  model.AllocRemote + writeGuard,
		},
	}
	for _, c := range cases {
		m := ir.NewModule("trap")
		c.build(m)
		st, clock, err := runErr(t, m, c.opts, c.tagged, c.runs)
		if err.Error() != c.text {
			t.Errorf("%s: error text\n got: %s\nwant: %s", c.name, err, c.text)
		}
		if st.Instructions != c.instrs {
			t.Errorf("%s: trapped after %d instructions, want %d", c.name, st.Instructions, c.instrs)
		}
		charged := c.instrs
		if c.opts.MaxSteps != 0 {
			charged = c.opts.MaxSteps // every instruction past the limit was refused
		}
		if want := charged*instr + c.extra; clock != want {
			t.Errorf("%s: clock %d at the trap, want %d", c.name, clock, want)
		}
	}
}

// TestFallOffBlockIsRefusedAtDecode: a block without a terminator used
// to be caught while running ("fell off block"); a flat program would
// instead run on into the next block, so decoding refuses it, with the
// same text. New never gets this far (ir.Verify rejects the module
// first), hence the direct call.
func TestFallOffBlockIsRefusedAtDecode(t *testing.T) {
	m := ir.NewModule("open")
	b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
	b.Add(ir.CI(1), ir.CI(2))
	if _, err := decode(m); err == nil || err.Error() != "interp: fell off block entry in @main" {
		t.Fatalf("decode of an unterminated block: %v", err)
	}
	if _, err := New(m, newRT(), Options{}); err == nil {
		t.Fatal("New accepted an unterminated block")
	}
}

// TestUnguardedTaggedAccessTraps: the safety property. A load or store
// whose address is still tagged (it never went through a guard) aborts
// with ErrUnsafeAccess naming that address, after the instruction was
// counted and charged.
func TestUnguardedTaggedAccessTraps(t *testing.T) {
	for _, store := range []bool{false, true} {
		m := ir.NewModule("unsafe")
		f := m.NewFunc("main", ir.I64())
		b := ir.NewBuilder(f)
		arr := b.Alloc(ir.I64(), ir.CI(8))
		b.Block().Instrs[0].DSHandle = ir.CI(0) // what pool allocation would have written
		elem := b.Idx(arr, ir.CI(3))
		if store {
			b.Store(ir.I64(), ir.CI(1), elem)
			b.Ret(ir.CI(0))
		} else {
			b.Ret(b.Load(ir.I64(), elem))
		}
		m.AssignSites()
		ir.MustVerify(m)

		rt := farmem.New(farmem.Config{PinnedBudget: 1 << 16, RemotableBudget: 1 << 16})
		rt.RegisterDS(0, farmem.DSMeta{ObjSize: 4096})
		rt.SetPlacement(0, farmem.PlaceRemotable)
		mach, err := New(m, rt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = mach.Run()
		var unsafe *farmem.ErrUnsafeAccess
		if !errors.As(err, &unsafe) {
			t.Fatalf("store=%v: err = %v, want ErrUnsafeAccess", store, err)
		}
		if want := farmem.MakeAddr(0, 0) + 3*8; unsafe.Addr != want {
			t.Fatalf("store=%v: trap names %#x, want %#x", store, unsafe.Addr, want)
		}
		wantText := fmt.Sprintf("interp: @main %s: %v", b.Func().Blocks[0].Instrs[2], unsafe)
		if err.Error() != wantText {
			t.Fatalf("store=%v: error text\n got: %s\nwant: %s", store, err, wantText)
		}
		if st := mach.Stats(); st.Instructions != 3 {
			t.Fatalf("store=%v: trapped after %d instructions, want 3", store, st.Instructions)
		}
	}
}

// TestDecodeFusesOnlyTheGuardedAccessTriple: the decoder fuses a GEP
// only with the guard of its result and the access through the guard's,
// in the next two slots of the same block, and leaves both slots decoded
// on their own. A fused store is store-once only when its write guard's
// result has no use but the store's address.
func TestDecodeFusesOnlyTheGuardedAccessTriple(t *testing.T) {
	m := ir.NewModule("fuse")
	b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
	arr := b.Alloc(ir.I64(), ir.CI(8))
	guard := func(addr ir.Value) *ir.Reg { return appendGuard(b, addr, false) }
	guardedAccess(b, arr, ir.CI(1), true, ir.CI(5)) // fused store, store-once
	_, g, v := guardedAccess(b, arr, ir.CI(1), false, nil)
	b.Store(ir.I64(), v, g)         // an access through an old guard: not fused
	p := b.GEP(arr, ir.CI(2), 8, 0) // GEP, something else, guard: not fused
	b.Add(p, ir.CI(1))
	b.Store(ir.I64(), ir.CI(1), guard(p))
	b.GEP(arr, ir.CI(5), 8, 0) // GEP, a guard of another address, access: not fused
	b.Store(ir.I64(), ir.CI(2), guard(arr))
	guard(b.GEP(arr, ir.CI(7), 8, 0)) // GEP, its guard, an access through another: not fused
	b.Store(ir.I64(), ir.CI(3), g)
	// Fused stores whose guard result has a second use: never store-once.
	_, g2, _ := guardedAccess(b, arr, ir.CI(6), true, ir.CI(9))
	b.Load(ir.I64(), g2) // a later load through it
	_, g3, _ := guardedAccess(b, arr, ir.CI(4), true, ir.CI(10))
	b.Copy(g3) // a copy of it
	p2 := b.GEP(arr, ir.CI(2), 8, 0)
	g4 := appendGuard(b, p2, true)
	b.Store(ir.I64(), g4, g4) // it is the stored value too
	// A read guard whose result feeds one store: fused, never store-once.
	guardedAccess(b, arr, ir.CI(5), false, ir.CI(11))

	q := guard(b.GEP(arr, ir.CI(3), 8, 0)) // GEP, guard, then the block ends: not fused
	next := b.NewBlock("next")
	b.Jmp(next)
	b.SetBlock(next)
	b.Ret(b.Load(ir.I64(), q))
	m.AssignSites()
	ir.MustVerify(m)

	main, err := decode(m)
	if err != nil {
		t.Fatal(err)
	}
	var got []opcode
	for _, in := range main.code {
		got = append(got, in.op)
	}
	want := []opcode{opAlloc, opGEPOnce, opGuardW, opStore, opGEPLoad, opGuardR, opLoad, opStore,
		opGEP, opAdd, opGuardR, opStore, opGEP, opGuardR, opStore,
		opGEP, opGuardR, opStore,
		opGEPStore, opGuardW, opStore, opLoad, opGEPStore, opGuardW, opStore, opMove,
		opGEPStore, opGuardW, opStore, opGEPStore, opGuardR, opStore,
		opGEP, opGuardR, opJmp, opLoad, opRet}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("decoded ops\n got: %v\nwant: %v", got, want)
	}
	mach, err := New(m, newRT(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := mach.Run(); err != nil || v != 0 {
		t.Fatalf("run = %d, %v; want 0 (word 3 was never written)", v, err)
	}
	if n := mach.Stats().Instructions; n != uint64(len(want)) {
		t.Fatalf("%d instructions counted, want %d", n, len(want))
	}
}

// ---- Randomised programs against a reference evaluator. ----

// evalBin is the reference arithmetic: a binary operator on raw register
// bits, spelled out once per kind. The machine has its own, inline in
// exec; this copy is what it is checked against.
func evalBin(kind ir.BinKind, x, y uint64) (uint64, error) {
	b := func(cond bool) uint64 {
		if cond {
			return 1
		}
		return 0
	}
	xi, yi := int64(x), int64(y)
	switch kind {
	case ir.Add:
		return uint64(xi + yi), nil
	case ir.Sub:
		return uint64(xi - yi), nil
	case ir.Mul:
		return uint64(xi * yi), nil
	case ir.Div:
		if yi == 0 {
			return 0, fmt.Errorf("integer division by zero")
		}
		return uint64(xi / yi), nil
	case ir.Rem:
		if yi == 0 {
			return 0, fmt.Errorf("integer remainder by zero")
		}
		return uint64(xi % yi), nil
	case ir.And:
		return x & y, nil
	case ir.Or:
		return x | y, nil
	case ir.Xor:
		return x ^ y, nil
	case ir.Shl:
		return x << (y & 63), nil
	case ir.Shr:
		return x >> (y & 63), nil
	case ir.EQ:
		return b(xi == yi), nil
	case ir.NE:
		return b(xi != yi), nil
	case ir.LT:
		return b(xi < yi), nil
	case ir.LE:
		return b(xi <= yi), nil
	case ir.GT:
		return b(xi > yi), nil
	case ir.GE:
		return b(xi >= yi), nil
	case ir.FAdd:
		return math.Float64bits(math.Float64frombits(x) + math.Float64frombits(y)), nil
	case ir.FSub:
		return math.Float64bits(math.Float64frombits(x) - math.Float64frombits(y)), nil
	case ir.FMul:
		return math.Float64bits(math.Float64frombits(x) * math.Float64frombits(y)), nil
	case ir.FDiv:
		return math.Float64bits(math.Float64frombits(x) / math.Float64frombits(y)), nil
	case ir.FLT:
		return b(math.Float64frombits(x) < math.Float64frombits(y)), nil
	case ir.IToF:
		return math.Float64bits(float64(int64(x))), nil
	}
	return 0, fmt.Errorf("unknown binary op %v", kind)
}

// refEval is the obvious evaluator for the subset the generator below
// emits: it walks ir.Instr and ir.Value directly, counts each
// instruction, refuses it past limit, charges it to rt's clock and only
// then runs it, leaning on evalBin for arithmetic and on rt for
// allocation, guards, loads, stores, prefetch and all_local. It exists
// only here, as the oracle the pre-decoded machine is compared with; it
// is deliberately not fast.
func refEval(m *ir.Module, f *ir.Function, args []uint64, rt *farmem.Runtime, limit uint64, st *refStats) (uint64, error) {
	st.Calls++
	regs := make([]uint64, len(f.Regs()))
	for i, p := range f.Params {
		regs[p.ID] = args[i]
	}
	get := func(v ir.Value) uint64 {
		switch vv := v.(type) {
		case *ir.Reg:
			return regs[vv.ID]
		case ir.IntConst:
			return uint64(vv.V)
		}
		return math.Float64bits(v.(ir.FloatConst).V)
	}
	blk, idx := f.Entry(), 0
	for {
		in := blk.Instrs[idx]
		idx++
		if st.Instructions++; st.Instructions > limit {
			return 0, fmt.Errorf("interp: step limit (%d) exceeded", limit)
		}
		rt.Clock().Advance(rt.Model().Instr)
		var err error
		switch in.Op {
		case ir.OpConst:
			regs[in.Dst.ID] = uint64(in.IntVal)
			if in.IsFloat {
				regs[in.Dst.ID] = math.Float64bits(in.FloatVal)
			}
		case ir.OpCopy:
			regs[in.Dst.ID] = get(in.Src)
		case ir.OpBin:
			regs[in.Dst.ID], err = evalBin(in.Kind, get(in.X), get(in.Y))
		case ir.OpGEP:
			regs[in.Dst.ID] = get(in.Base) + get(in.Index)*uint64(in.ElemSize) + uint64(in.ConstOff)
		case ir.OpAlloc:
			n := int64(get(in.Count)) * int64(in.Elem.Size())
			if in.DSHandle != nil {
				regs[in.Dst.ID], err = rt.DSAlloc(int(int64(get(in.DSHandle))), n)
			} else {
				regs[in.Dst.ID], err = rt.AllocLocal(n)
			}
			if err != nil {
				return 0, fmt.Errorf("interp: @%s alloc: %w", f.Name, err)
			}
		case ir.OpGuard:
			regs[in.Dst.ID], err = rt.GuardSpan(get(in.Addr), in.IsWrite, in.GLo, in.GHi)
		case ir.OpLoad:
			regs[in.Dst.ID], err = rt.ReadWord(get(in.Addr))
		case ir.OpStore:
			err = rt.WriteWord(get(in.Addr), get(in.Src))
		case ir.OpPrefetch:
			rt.Prefetch(get(in.Addr))
		case ir.OpAllLocal:
			regs[in.Dst.ID] = 0
			if rt.AllLocal(in.DSRefs) {
				regs[in.Dst.ID] = 1
			}
		case ir.OpCall:
			if in.Callee == ROIBegin || in.Callee == ROIEnd {
				if in.Callee == ROIEnd && st.inROI {
					st.ROICycles += rt.Clock().Now() - st.roiStart
				}
				st.inROI, st.roiStart = in.Callee == ROIBegin, rt.Clock().Now()
				break
			}
			cargs := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				cargs[i] = get(a)
			}
			v, err := refEval(m, m.FuncByName(in.Callee), cargs, rt, limit, st)
			if err != nil {
				return 0, err
			}
			regs[in.Dst.ID] = v
		case ir.OpRet:
			return get(in.Src), nil
		case ir.OpBr:
			blk, idx = in.Else, 0
			if get(in.Cond) != 0 {
				blk = in.Then
			}
		case ir.OpJmp:
			blk, idx = in.Target, 0
		}
		if err != nil {
			return 0, fmt.Errorf("interp: @%s %s: %w", f.Name, in, err)
		}
	}
}

// refStats is what refEval tallies: the machine's Stats, plus its ROI
// state.
type refStats struct {
	Stats
	inROI    bool
	roiStart uint64
}

// genProgram builds a random program: a DAG of functions (f_i calls only
// f_j, j > i), each a mix of straight-line arithmetic over every
// BinKind, bounded counted loops and calls. Division by a value that
// happens to be zero is left in: both evaluators must then stop at the
// same instruction with the same text.
//
// With memory, every function also allocates a 16-word array on entry —
// mostly in remotable structure 0 (see memRuntime), else in local
// memory — and mixes in guarded accesses to it: GEP → guard → load/store
// triples as the guard pass emits them, whose address, guard and loaded
// registers stay live for later instructions, accesses through an
// earlier triple's guard, now and then a triple whose base is any live
// value (which may trap), prefetch hints, all_local checks and ROI
// markers. Without memory the programs (and the random draws) are
// exactly those of the register-only generator.
func genProgram(rng *rand.Rand, memory bool) *ir.Module {
	m := ir.NewModule("rand")
	i64 := ir.I64()
	kinds := []ir.BinKind{ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr,
		ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE, ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FLT, ir.IToF}
	choices := 10
	var roi [2]*ir.Function
	if memory {
		choices = 18
		for k, name := range []string{ROIBegin, ROIEnd} {
			roi[k] = m.NewFunc(name, ir.Void())
			ir.NewBuilder(roi[k]).Ret(nil)
		}
	}
	nFuncs := 2 + rng.Intn(4)
	funcs := make([]*ir.Function, nFuncs)
	for i := nFuncs - 1; i >= 0; i-- {
		name := fmt.Sprintf("f%d", i)
		var params []ir.Param
		if i == 0 {
			name = "main"
		} else {
			for p := rng.Intn(4); p > 0; p-- {
				params = append(params, ir.P(fmt.Sprintf("p%d", p), i64))
			}
		}
		f := m.NewFunc(name, i64, params...)
		funcs[i] = f
		b := ir.NewBuilder(f)
		live := []ir.Value{ir.CI(rng.Int63n(100) - 50), ir.CF(rng.Float64() * 8)}
		for _, p := range f.Params {
			live = append(live, p)
		}
		var arr ir.Value
		var guards []*ir.Reg
		if memory {
			arr = b.Alloc(i64, ir.CI(16))
			if rng.Intn(4) != 0 {
				b.Block().Instrs[0].DSHandle = ir.CI(0) // what pool allocation would have written
			}
			live = append(live, arr)
		}
		pick := func() ir.Value {
			if rng.Intn(5) == 0 {
				return ir.CI(rng.Int63n(17) - 4)
			}
			return live[rng.Intn(len(live))]
		}
		// access emits one guarded access triple over arr (or, rarely, a
		// wild base) at a word index in [0, 8) plus a constant word offset
		// in [0, 8), inside the array's 16 words.
		access := func(store bool) {
			base := arr
			if rng.Intn(16) == 0 {
				base = pick()
			}
			p := b.GEP(base, b.And(pick(), ir.CI(7)), 8, 8*rng.Intn(8))
			g := appendGuard(b, p, store || rng.Intn(4) == 0)
			live = append(live, p, g)
			guards = append(guards, g)
			if store {
				b.Store(i64, pick(), g)
			} else {
				live = append(live, b.Load(i64, g))
			}
		}
		var emit func(depth int)
		emit = func(depth int) {
			for n := 2 + rng.Intn(6); n > 0; n-- {
				switch c := rng.Intn(choices); {
				case c < 6:
					live = append(live, b.Bin(kinds[rng.Intn(len(kinds))], pick(), pick()))
				case c == 6:
					live = append(live, b.GEP(pick(), pick(), 1+rng.Intn(16), rng.Intn(64)))
				case c == 7 && i+1 < nFuncs:
					callee := funcs[i+1+rng.Intn(nFuncs-i-1)]
					args := make([]ir.Value, len(callee.Params))
					for a := range args {
						args[a] = pick()
					}
					live = append(live, b.Call(callee, args...))
				case c == 8 && depth < 2:
					acc := f.NewReg("", i64)
					b.Assign(acc, pick())
					loop := b.CountedLoop("l", ir.CI(0), ir.CI(int64(1+rng.Intn(5))), ir.CI(1))
					// Registers defined in the body stay readable after it:
					// they hold the last iteration's value.
					live = append(live, loop.IV, acc)
					emit(depth + 1)
					b.Assign(acc, b.Xor(acc, pick()))
					b.CloseLoop(loop)
				case c >= 10 && c <= 14:
					access(c >= 13)
				case c == 15 && len(guards) > 0:
					// Through an earlier triple's guard, as redundant guard
					// elimination leaves it: never fused.
					g := guards[rng.Intn(len(guards))]
					if rng.Intn(2) == 0 {
						b.Store(i64, pick(), g)
					} else {
						live = append(live, b.Load(i64, g))
					}
				case c == 16:
					if rng.Intn(2) == 0 {
						pf := ir.NewInstr(ir.OpPrefetch)
						pf.Addr = b.GEP(arr, ir.CI(int64(rng.Intn(16))), 8, 0)
						b.Block().Append(pf)
					} else {
						al := ir.NewInstr(ir.OpAllLocal)
						al.DSRefs, al.Dst = []int{0}, f.NewReg("", i64)
						b.Block().Append(al)
						live = append(live, al.Dst)
					}
				case c == 17:
					b.Call(roi[rng.Intn(2)])
				default:
					live = append(live, b.Copy(pick()))
				}
			}
		}
		emit(0)
		b.Ret(pick())
	}
	m.AssignSites()
	ir.MustVerify(m)
	return m
}

// memRuntime is the runtime guarded programs run over: structure 0
// remotable in 32-byte objects with a strided prefetcher and room for
// two of them, so guards materialise, evict, fetch and wait on
// prefetches — every path on which the runtime reads the clock. Each
// runtime event is appended to log with its virtual time.
func memRuntime(log *[]farmem.Event) *farmem.Runtime {
	rt := farmem.New(farmem.Config{PinnedBudget: 1 << 16, RemotableBudget: 2 * 32})
	rt.RegisterDS(0, farmem.DSMeta{ObjSize: 32, ElemSize: 8, Stride: 8, Pattern: farmem.PatternStrided})
	rt.SetPlacement(0, farmem.PlaceRemotable)
	rt.SetPrefetcher(0, prefetch.Select(prefetch.Hints{Pattern: farmem.PatternStrided, ElemSize: 8, Stride: 8, ObjSize: 32}))
	rt.SetEventHook(func(e farmem.Event) { *log = append(*log, e) })
	return rt
}

// sameAsReference runs m on the machine and on refEval under one step
// limit, each over a fresh runtime of the same configuration (memRuntime
// with memory, else newRT), and requires the same result or trap text,
// the same instruction and call counts, the same virtual time and the
// same runtime counters; with memory, also the same ROI time and the same
// runtime events at the same virtual instants — what a runtime call made
// before the instructions ahead of it were charged would change. It
// returns the machine's instruction count and error.
func sameAsReference(t *testing.T, name string, m *ir.Module, memory bool, limit uint64) (uint64, error) {
	t.Helper()
	var want refStats
	var refLog, log []farmem.Event
	refRT, rt := newRT(), newRT()
	if memory {
		refRT, rt = memRuntime(&refLog), memRuntime(&log)
	}
	defer rt.Close()
	defer refRT.Close()
	wantV, wantErr := refEval(m, m.Main(), nil, refRT, limit, &want)

	mach, err := New(m, rt, Options{MaxSteps: limit})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	gotV, gotErr := mach.Run()
	got := mach.Stats()

	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s, limit %d: error %v, reference %v\n%s", name, limit, gotErr, wantErr, m)
	}
	if gotV != wantV {
		t.Fatalf("%s, limit %d: result %#x, reference %#x\n%s", name, limit, gotV, wantV, m)
	}
	if got.Instructions != want.Instructions || got.Calls != want.Calls || got.ROICycles != want.ROICycles {
		t.Fatalf("%s, limit %d: %d instructions / %d calls / %d ROI cycles, reference %d / %d / %d\n%s",
			name, limit, got.Instructions, got.Calls, got.ROICycles, want.Instructions, want.Calls, want.ROICycles, m)
	}
	if !memory {
		if clock := rt.Clock().Now(); clock != got.Instructions*rt.Model().Instr {
			t.Fatalf("%s: clock %d for %d instructions", name, clock, got.Instructions)
		}
	}
	if clock, ref := rt.Clock().Now(), refRT.Clock().Now(); clock != ref {
		t.Fatalf("%s, limit %d: clock %d, reference %d\n%s", name, limit, clock, ref, m)
	}
	if st, ref := rt.Stats(), refRT.Stats(); st != ref {
		t.Fatalf("%s, limit %d: runtime counters %+v, reference %+v", name, limit, st, ref)
	}
	if fmt.Sprint(log) != fmt.Sprint(refLog) {
		t.Fatalf("%s, limit %d: runtime events\n%v\nreference\n%v", name, limit, log, refLog)
	}
	return got.Instructions, gotErr
}

// matchReference holds 300 generated programs to the reference
// (sameAsReference) and returns how many trapped. With memory, each
// program is also run under step limits drawn from its own length, so
// the limit lands on every kind of slot, the three of a fused triple
// included.
func matchReference(t *testing.T, memory bool) (trapped int) {
	for seed := int64(1); seed <= 300; seed++ {
		m := genProgram(rand.New(rand.NewSource(seed)), memory)
		name := fmt.Sprintf("seed %d", seed)
		n, err := sameAsReference(t, name, m, memory, 1_000_000_000)
		if err != nil {
			trapped++
		}
		for k := uint64(1); memory && k <= 4; k++ {
			sameAsReference(t, name, m, memory, 1+(uint64(seed)*k*2654435761)%n)
		}
	}
	return trapped
}

// TestRuntimeCallsSeeSettledClock: every runtime call that can observe
// the clock sees it charged for every instruction before it, and the
// step limit lands where the reference puts it, on each slot. One
// program reaches each observation point on purpose: fused stores that
// materialise four objects into room for two (dirty evictions), a
// prefetch hint on an evicted object, a fused load that waits for it, an
// unfused guard (GEP, another instruction, guard, load), all_local and
// both ROI markers; it is run under every step limit up to its length.
func TestRuntimeCallsSeeSettledClock(t *testing.T) {
	m := ir.NewModule("observe")
	var roi [2]*ir.Function
	for k, name := range []string{ROIBegin, ROIEnd} {
		roi[k] = m.NewFunc(name, ir.Void())
		ir.NewBuilder(roi[k]).Ret(nil)
	}
	b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
	arr := b.Alloc(ir.I64(), ir.CI(16))
	b.Block().Instrs[0].DSHandle = ir.CI(0)
	b.Call(roi[0])
	for k := int64(0); k < 4; k++ {
		guardedAccess(b, arr, ir.CI(4*k), true, ir.CI(k+1))
	}
	pf := ir.NewInstr(ir.OpPrefetch)
	pf.Addr = b.GEP(arr, ir.CI(1), 8, 0)
	b.Block().Append(pf)
	x := b.Mul(b.Add(ir.CI(2), ir.CI(3)), ir.CI(7))
	_, _, v := guardedAccess(b, arr, ir.CI(0), false, nil)
	p := b.GEP(arr, ir.CI(4), 8, 0)
	x = b.Add(x, v)
	x = b.Add(x, b.Load(ir.I64(), appendGuard(b, p, false)))
	al := ir.NewInstr(ir.OpAllLocal)
	al.DSRefs, al.Dst = []int{0}, b.Func().NewReg("", ir.I64())
	b.Block().Append(al)
	b.Call(roi[1])
	b.Ret(b.Add(x, al.Dst))
	m.AssignSites()
	ir.MustVerify(m)

	n, err := sameAsReference(t, "full run", m, true, 1_000_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for limit := uint64(1); limit <= n; limit++ {
		sameAsReference(t, "step limit", m, true, limit)
	}
	var log []farmem.Event
	rt := memRuntime(&log)
	defer rt.Close()
	mach, _ := New(m, rt, Options{})
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[farmem.EventKind]int{}
	for _, e := range log {
		kinds[e.Kind]++
	}
	if kinds[farmem.EvEvict] == 0 || kinds[farmem.EvPrefetch] == 0 || kinds[farmem.EvPrefetchHit] == 0 {
		t.Fatalf("the program does not reach the paths it is for: events %v", kinds)
	}
}

func TestRandomProgramsMatchReference(t *testing.T) {
	if trapped := matchReference(t, false); trapped == 0 || trapped == 300 {
		t.Fatalf("%d of 300 programs trapped; the generator should produce both kinds", trapped)
	}
}

// TestRandomGuardedProgramsMatchReference is the same oracle over
// programs with guarded memory, so fused triples (and the step budget
// around them) run against a reference that executes each instruction on
// its own. The decoder must have fused something in most programs.
func TestRandomGuardedProgramsMatchReference(t *testing.T) {
	if trapped := matchReference(t, true); trapped == 0 || trapped == 300 {
		t.Fatalf("%d of 300 programs trapped; the generator should produce both kinds", trapped)
	}
	fused := 0
	for seed := int64(1); seed <= 300; seed++ {
		main, err := decode(genProgram(rand.New(rand.NewSource(seed)), true))
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range main.code {
			if in.op == opGEPLoad || in.op == opGEPStore || in.op == opGEPOnce {
				fused++
				break
			}
		}
	}
	if fused < 150 {
		t.Fatalf("only %d of 300 mains hold a fused access", fused)
	}
}
