package interp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cards/internal/farmem"
	"cards/internal/ir"
)

// runErr runs main, which must trap, and returns the machine's stats and
// the virtual clock at the moment it stopped, with the error.
func runErr(t *testing.T, m *ir.Module, opts Options) (Stats, uint64, error) {
	t.Helper()
	m.AssignSites()
	ir.MustVerify(m)
	rt := newRT()
	mach, err := New(m, rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, err = mach.Run()
	if err == nil {
		t.Fatal("program ran to completion, want a trap")
	}
	return mach.Stats(), rt.Clock().Now(), err
}

// TestTrapTextAndTripPoint pins, for the traps a program's own values
// cause, the exact error text, the number of instructions counted when it
// fired and the virtual time charged up to it (TestStepLimit and
// TestRecursionDepthLimit do the same for the two resource limits). The
// values are those of the tree-walking interpreter the pre-decoded one
// replaced.
func TestTrapTextAndTripPoint(t *testing.T) {
	instr := newRT().Model().Instr
	cases := []struct {
		name   string
		build  func(m *ir.Module)
		text   string
		instrs uint64 // Stats.Instructions at the trap, each charged to the clock
		extra  uint64 // virtual time charged by anything else (an allocator call)
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
	}
	for _, c := range cases {
		m := ir.NewModule("trap")
		c.build(m)
		st, clock, err := runErr(t, m, Options{})
		if err.Error() != c.text {
			t.Errorf("%s: error text\n got: %s\nwant: %s", c.name, err, c.text)
		}
		if st.Instructions != c.instrs {
			t.Errorf("%s: trapped after %d instructions, want %d", c.name, st.Instructions, c.instrs)
		}
		if want := c.instrs*instr + c.extra; clock != want {
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

// ---- Randomised programs against a reference evaluator. ----

// refEval is the obvious evaluator for the register-only subset the
// generator below emits: it walks ir.Instr and ir.Value directly and
// leans on evalBin for arithmetic. It exists only here, as the oracle
// the pre-decoded machine is compared with; it is deliberately not fast.
func refEval(m *ir.Module, f *ir.Function, args []uint64, st *Stats) (uint64, error) {
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
		st.Instructions++
		switch in.Op {
		case ir.OpConst:
			regs[in.Dst.ID] = uint64(in.IntVal)
			if in.IsFloat {
				regs[in.Dst.ID] = math.Float64bits(in.FloatVal)
			}
		case ir.OpCopy:
			regs[in.Dst.ID] = get(in.Src)
		case ir.OpBin:
			v, err := evalBin(in.Kind, get(in.X), get(in.Y))
			if err != nil {
				return 0, fmt.Errorf("interp: @%s %s: %w", f.Name, in, err)
			}
			regs[in.Dst.ID] = v
		case ir.OpGEP:
			regs[in.Dst.ID] = get(in.Base) + get(in.Index)*uint64(in.ElemSize) + uint64(in.ConstOff)
		case ir.OpCall:
			cargs := make([]uint64, len(in.Args))
			for i, a := range in.Args {
				cargs[i] = get(a)
			}
			v, err := refEval(m, m.FuncByName(in.Callee), cargs, st)
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
	}
}

// genProgram builds a random register-only program: a DAG of functions
// (f_i calls only f_j, j > i), each a mix of straight-line arithmetic
// over every BinKind, bounded counted loops and calls. Division by a
// value that happens to be zero is left in: both evaluators must then
// stop at the same instruction with the same text.
func genProgram(rng *rand.Rand) *ir.Module {
	m := ir.NewModule("rand")
	i64 := ir.I64()
	kinds := []ir.BinKind{ir.Add, ir.Sub, ir.Mul, ir.Div, ir.Rem, ir.And, ir.Or, ir.Xor, ir.Shl, ir.Shr,
		ir.EQ, ir.NE, ir.LT, ir.LE, ir.GT, ir.GE, ir.FAdd, ir.FSub, ir.FMul, ir.FDiv, ir.FLT, ir.IToF}
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
		pick := func() ir.Value {
			if rng.Intn(5) == 0 {
				return ir.CI(rng.Int63n(17) - 4)
			}
			return live[rng.Intn(len(live))]
		}
		var emit func(depth int)
		emit = func(depth int) {
			for n := 2 + rng.Intn(6); n > 0; n-- {
				switch c := rng.Intn(10); {
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

func TestRandomProgramsMatchReference(t *testing.T) {
	trapped := 0
	for seed := int64(1); seed <= 300; seed++ {
		m := genProgram(rand.New(rand.NewSource(seed)))
		var want Stats
		wantV, wantErr := refEval(m, m.Main(), nil, &want)

		rt := newRT()
		mach, err := New(m, rt, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		gotV, gotErr := mach.Run()
		got := mach.Stats()

		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("seed %d: error %v, reference %v\n%s", seed, gotErr, wantErr, m)
		}
		if gotErr != nil {
			trapped++
		}
		if gotV != wantV {
			t.Fatalf("seed %d: result %#x, reference %#x\n%s", seed, gotV, wantV, m)
		}
		if got.Instructions != want.Instructions || got.Calls != want.Calls {
			t.Fatalf("seed %d: %d instructions / %d calls, reference %d / %d\n%s",
				seed, got.Instructions, got.Calls, want.Instructions, want.Calls, m)
		}
		if clock := rt.Clock().Now(); clock != got.Instructions*rt.Model().Instr {
			t.Fatalf("seed %d: clock %d for %d instructions", seed, clock, got.Instructions)
		}
	}
	if trapped == 0 || trapped == 300 {
		t.Fatalf("%d of 300 programs trapped; the generator should produce both kinds", trapped)
	}
}
