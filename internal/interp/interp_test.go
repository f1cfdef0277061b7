package interp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cards/internal/farmem"
	"cards/internal/ir"
)

func newRT() *farmem.Runtime {
	return farmem.New(farmem.Config{PinnedBudget: 1 << 22, RemotableBudget: 1 << 20})
}

// runMain builds a machine and executes the module's main.
func runMain(t *testing.T, m *ir.Module) uint64 {
	t.Helper()
	mach, err := New(m, newRT(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	m := ir.NewModule("arith")
	f := m.NewFunc("main", ir.I64())
	b := ir.NewBuilder(f)
	// ((7*6 - 2) / 4) % 3 => (40/4)%3 = 10%3 = 1
	v := b.Rem(b.Div(b.Sub(b.Mul(ir.CI(7), ir.CI(6)), ir.CI(2)), ir.CI(4)), ir.CI(3))
	// plus (1 << 4) >> 2 = 4, xor 1 = 5, or 8 = 13, and 0xF = 13
	w := b.And(b.Bin(ir.Or, b.Xor(b.Shr(b.Shl(ir.CI(1), ir.CI(4)), ir.CI(2)), ir.CI(1)), ir.CI(8)), ir.CI(0xF))
	b.Ret(b.Add(v, w))
	m.AssignSites()
	ir.MustVerify(m)
	if got := runMain(t, m); got != 14 {
		t.Fatalf("got %d, want 14", got)
	}
}

func TestComparisons(t *testing.T) {
	m := ir.NewModule("cmp")
	f := m.NewFunc("main", ir.I64())
	b := ir.NewBuilder(f)
	acc := f.NewReg("acc", ir.I64())
	b.Assign(acc, ir.CI(0))
	for _, r := range []*ir.Reg{
		b.LT(ir.CI(-1), ir.CI(1)), b.LE(ir.CI(2), ir.CI(2)),
		b.GT(ir.CI(3), ir.CI(-3)), b.GE(ir.CI(4), ir.CI(4)),
		b.EQ(ir.CI(5), ir.CI(5)), b.NE(ir.CI(6), ir.CI(7)),
	} {
		b.Assign(acc, b.Add(acc, r))
	}
	b.Ret(acc)
	m.AssignSites()
	ir.MustVerify(m)
	if got := runMain(t, m); got != 6 {
		t.Fatalf("got %d, want 6", got)
	}
}

func TestFloatOps(t *testing.T) {
	m := ir.NewModule("float")
	f := m.NewFunc("main", ir.I64())
	b := ir.NewBuilder(f)
	// (2.5 * 4 - 1) / 2 = 4.5
	x := b.FDiv(b.FSub(b.FMul(ir.CF(2.5), ir.CF(4)), ir.CF(1)), ir.CF(2))
	// itof(3) + 4.5 = 7.5; flt(7.5, 8) = 1
	y := b.FAdd(b.IToF(ir.CI(3)), x)
	b.Ret(b.Bin(ir.FLT, y, ir.CF(8)))
	m.AssignSites()
	ir.MustVerify(m)
	if got := runMain(t, m); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	_ = math.Pi
}

func TestDivisionByZeroTrap(t *testing.T) {
	for _, kind := range []ir.BinKind{ir.Div, ir.Rem} {
		m := ir.NewModule("trap")
		f := m.NewFunc("main", ir.I64())
		b := ir.NewBuilder(f)
		b.Ret(b.Bin(kind, ir.CI(1), ir.CI(0)))
		m.AssignSites()
		ir.MustVerify(m)
		mach, err := New(m, newRT(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run(); err == nil || !strings.Contains(err.Error(), "zero") {
			t.Fatalf("%v: err = %v, want division by zero", kind, err)
		}
	}
}

func TestStepLimit(t *testing.T) {
	m := ir.NewModule("spin")
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	loop := b.NewBlock("loop")
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Jmp(loop)
	m.AssignSites()
	ir.MustVerify(m)
	rt := newRT()
	mach, err := New(m, rt, Options{MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err == nil || err.Error() != "interp: step limit (1000) exceeded" {
		t.Fatalf("err = %v, want step limit", err)
	}
	// The 1001st instruction is counted, then refused before it is charged.
	if n := mach.Stats().Instructions; n != 1001 {
		t.Fatalf("tripped after %d instructions, want 1001", n)
	}
	if clock := rt.Clock().Now(); clock != 1000*rt.Model().Instr {
		t.Fatalf("clock %d at the trip, want 1000 instructions' worth", clock)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	m := ir.NewModule("deep")
	f := m.NewFunc("f", ir.Void(), ir.P("n", ir.I64()))
	b := ir.NewBuilder(f)
	b.Call(f, b.Add(f.Params[0], ir.CI(1)))
	b.Ret(nil)
	mf := m.NewFunc("main", ir.Void())
	mb := ir.NewBuilder(mf)
	mb.Call(f, ir.CI(0))
	mb.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)
	mach, err := New(m, newRT(), Options{MaxDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err == nil || err.Error() != "interp: call depth exceeded in @f" {
		t.Fatalf("err = %v, want depth exceeded", err)
	}
	// main's call, then add+call in each of the 63 activations of f that
	// fit under main; the 64th is refused before it runs anything.
	if st := mach.Stats(); st.Instructions != 1+2*63 || st.Calls != 64 || st.MaxDepthSeen != 64 {
		t.Fatalf("stats at the trip = %+v", st)
	}
}

func TestMainRequired(t *testing.T) {
	m := ir.NewModule("nomain")
	f := m.NewFunc("other", ir.Void())
	ir.NewBuilder(f).Ret(nil)
	m.AssignSites()
	mach, err := New(m, newRT(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err == nil {
		t.Fatal("missing main should error")
	}
}

func TestMainWithParamsRejected(t *testing.T) {
	m := ir.NewModule("badmain")
	f := m.NewFunc("main", ir.Void(), ir.P("argc", ir.I64()))
	ir.NewBuilder(f).Ret(nil)
	m.AssignSites()
	mach, err := New(m, newRT(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err == nil {
		t.Fatal("main with params should error")
	}
}

func TestUnverifiedModuleRejected(t *testing.T) {
	m := ir.NewModule("bad")
	m.NewFunc("main", ir.Void()) // no blocks
	if _, err := New(m, newRT(), Options{}); err == nil {
		t.Fatal("unverified module should be rejected")
	}
}

func TestMemoryRoundTripAndStats(t *testing.T) {
	m := ir.NewModule("mem")
	f := m.NewFunc("main", ir.I64())
	b := ir.NewBuilder(f)
	arr := b.Alloc(ir.I64(), ir.CI(16))
	loop := b.CountedLoop("i", ir.CI(0), ir.CI(16), ir.CI(1))
	b.Store(ir.I64(), b.Mul(loop.IV, loop.IV), b.Idx(arr, loop.IV))
	b.CloseLoop(loop)
	acc := f.NewReg("acc", ir.I64())
	b.Assign(acc, ir.CI(0))
	l2 := b.CountedLoop("j", ir.CI(0), ir.CI(16), ir.CI(1))
	b.Assign(acc, b.Add(acc, b.Load(ir.I64(), b.Idx(arr, l2.IV))))
	b.CloseLoop(l2)
	b.Ret(acc)
	m.AssignSites()
	ir.MustVerify(m)

	rt := newRT()
	mach, err := New(m, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	for i := uint64(0); i < 16; i++ {
		want += i * i
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	st := mach.Stats()
	if st.Instructions == 0 || st.Calls != 1 || st.MaxDepthSeen != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if rt.Clock().Now() == 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestNegativeAllocRejected(t *testing.T) {
	m := ir.NewModule("negalloc")
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	b.Alloc(ir.I64(), ir.CI(-3))
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)
	mach, _ := New(m, newRT(), Options{})
	if _, err := mach.Run(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("err = %v, want negative alloc", err)
	}
}

// runBin executes x <kind> y through a Machine.
func runBin(t *testing.T, kind ir.BinKind, x, y uint64) (uint64, error) {
	m := ir.NewModule("bin")
	b := ir.NewBuilder(m.NewFunc("main", ir.I64()))
	b.Ret(b.Bin(kind, ir.CI(int64(x)), ir.CI(int64(y))))
	m.AssignSites()
	mach, err := New(m, farmem.New(farmem.Config{}), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mach.Run()
}

// Property: every operator, executed by the machine, computes what the
// reference arithmetic (evalBin, semantics_test.go) does on raw register
// bits, and traps where it does with its text — over random operands and
// the edges: MinInt64 / -1 and % -1, shift counts of 64 and more, NaN bit
// patterns, infinities and IToF of negatives. A few edges are also pinned
// to Go's own answer, so a shared mistake cannot hide.
func TestEvalBinProperty(t *testing.T) {
	nan := math.Float64bits(math.NaN())
	edges := []uint64{0, 1, 7, 63, 64, 65, 1 << 63, math.MaxUint64, uint64(math.MaxInt64),
		nan, nan | 1<<63, 0x7FF0000000000001, math.Float64bits(math.Inf(1)), math.Float64bits(-2.5)}
	operand := func(v uint64, pick uint8) uint64 {
		if pick%3 == 0 {
			return edges[int(pick/3)%len(edges)]
		}
		return v
	}
	prop := func(k uint8, x, y uint64, px, py uint8) bool {
		kind := ir.BinKind(int(k) % (int(ir.IToF) + 1))
		x, y = operand(x, px), operand(y, py)
		got, gotErr := runBin(t, kind, x, y)
		want, wantErr := evalBin(kind, x, y)
		if wantErr != nil {
			return gotErr != nil && strings.HasSuffix(gotErr.Error(), ": "+wantErr.Error())
		}
		return gotErr == nil && got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}

	minInt := uint64(1) << 63
	for _, c := range []struct {
		kind ir.BinKind
		x, y uint64
		want uint64
	}{
		{ir.Div, minInt, math.MaxUint64, minInt}, // MinInt64 / -1 wraps
		{ir.Rem, minInt, math.MaxUint64, 0},
		{ir.Shl, 1, 64, 1}, // counts are taken mod 64
		{ir.Shl, 1, 65, 2},
		{ir.Shr, 1 << 63, 127, 1},
		{ir.IToF, uint64(1<<64 - 3), 0, math.Float64bits(-3)},
		{ir.FLT, nan, math.Float64bits(1), 0},
		{ir.FLT, math.Float64bits(1), nan, 0},
		{ir.LT, minInt, 0, 1}, // signed
	} {
		if got, err := runBin(t, c.kind, c.x, c.y); err != nil || got != c.want {
			t.Errorf("%v %#x, %#x = %#x, %v; want %#x", c.kind, c.x, c.y, got, err, c.want)
		}
	}
	if got, err := runBin(t, ir.FAdd, nan, math.Float64bits(1)); err != nil || !math.IsNaN(math.Float64frombits(got)) {
		t.Errorf("fadd NaN, 1 = %#x, %v; want a NaN", got, err)
	}
}

func TestGuardAndPrefetchOps(t *testing.T) {
	// Build a module with explicit guard/prefetch/all_local instructions
	// (what the guards pass emits) and execute it directly.
	m := ir.NewModule("intrinsics")
	f := m.NewFunc("main", ir.I64())
	b := ir.NewBuilder(f)
	arr := b.Alloc(ir.I64(), ir.CI(8))

	g := ir.NewInstr(ir.OpGuard)
	g.Addr = arr
	g.IsWrite = true
	g.Dst = f.NewReg("", ir.Ptr(ir.I64()))
	b.Block().Append(g)
	b.Store(ir.I64(), ir.CI(77), g.Dst)

	pf := ir.NewInstr(ir.OpPrefetch)
	pf.Addr = arr
	b.Block().Append(pf)

	al := ir.NewInstr(ir.OpAllLocal)
	al.DSRefs = []int{0}
	al.Dst = f.NewReg("", ir.I64())
	b.Block().Append(al)

	g2 := ir.NewInstr(ir.OpGuard)
	g2.Addr = arr
	g2.Dst = f.NewReg("", ir.Ptr(ir.I64()))
	b.Block().Append(g2)
	v := b.Load(ir.I64(), g2.Dst)
	b.Ret(b.Add(v, al.Dst))
	m.AssignSites()
	ir.MustVerify(m)

	rt := farmem.New(farmem.Config{PinnedBudget: 1 << 16, RemotableBudget: 1 << 16})
	rt.RegisterDS(0, farmem.DSMeta{ObjSize: 4096})
	// No placement: default Linear pins, so all_local yields 1.
	mach, err := New(m, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Plain alloc (no DSHandle) is pinned local memory: all_local([0])
	// is true (DS 0 never went remote), so result = 77 + 1.
	if got != 78 {
		t.Fatalf("got %d, want 78", got)
	}
}

func TestROIMarkersMeasureRegion(t *testing.T) {
	m := ir.NewModule("roi")
	begin := m.NewFunc(ROIBegin, ir.Void())
	ir.NewBuilder(begin).Ret(nil)
	end := m.NewFunc(ROIEnd, ir.Void())
	ir.NewBuilder(end).Ret(nil)

	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	pre := b.CountedLoop("pre", ir.CI(0), ir.CI(1000), ir.CI(1))
	b.ConstI(0)
	b.CloseLoop(pre)
	b.Call(begin)
	roi := b.CountedLoop("roi", ir.CI(0), ir.CI(100), ir.CI(1))
	b.ConstI(0)
	b.CloseLoop(roi)
	b.Call(end)
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	rt := newRT()
	mach, err := New(m, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	st := mach.Stats()
	if st.ROICycles == 0 {
		t.Fatal("ROI cycles not recorded")
	}
	if st.ROICycles >= rt.Clock().Now() {
		t.Fatalf("ROI (%d) should be a fraction of total (%d)", st.ROICycles, rt.Clock().Now())
	}
	// ROI loop is 10x smaller than the pre loop: ROI must be well under
	// a third of total time.
	if 3*st.ROICycles > rt.Clock().Now() {
		t.Fatalf("ROI (%d) too large vs total (%d)", st.ROICycles, rt.Clock().Now())
	}
}

func TestUnmatchedROIEndIsHarmless(t *testing.T) {
	m := ir.NewModule("roi2")
	end := m.NewFunc(ROIEnd, ir.Void())
	ir.NewBuilder(end).Ret(nil)
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	b.Call(end) // end without begin
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)
	mach, err := New(m, newRT(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(); err != nil {
		t.Fatal(err)
	}
	if mach.Stats().ROICycles != 0 {
		t.Fatal("unmatched end should record nothing")
	}
}
