package interp

import (
	"testing"

	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/prefetch"
)

// TestCompiledHitPathAllocFree is the allocation gate for the compiled
// hit path end to end: a pre-decoded loop of write-guarded stores,
// read-guarded loads and IR calls over an all-resident strided structure
// — with the prefetcher the compiler's hints select installed and a
// breaker configured, the two things a guard hit consults — allocates
// nothing: no register file or argument slice per call, no staging, no
// boxed operand.
func TestCompiledHitPathAllocFree(t *testing.T) {
	const n = 2048 // 4 objects of 4 KiB
	rt := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: 1 << 20, BreakerThreshold: 8})
	defer rt.Close()
	rt.RegisterDS(0, farmem.DSMeta{ObjSize: 4096, ElemSize: 8, Stride: 8, Pattern: farmem.PatternStrided})
	rt.SetPlacement(0, farmem.PlaceRemotable)
	rt.SetPrefetcher(0, prefetch.Select(prefetch.Hints{Pattern: farmem.PatternStrided, ElemSize: 8, Stride: 8, ObjSize: 4096}))
	base, err := rt.DSAlloc(0, n*8)
	if err != nil {
		t.Fatal(err)
	}

	i64 := ir.I64()
	m := ir.NewModule("hit")
	mixf := m.NewFunc("mix", i64, ir.P("acc", i64), ir.P("v", i64))
	{
		b := ir.NewBuilder(mixf)
		b.Ret(b.Add(b.Mul(mixf.Params[0], ir.CI(31)), mixf.Params[1]))
	}
	f := m.NewFunc("main", i64)
	b := ir.NewBuilder(f)
	guard := func(addr ir.Value, write bool) *ir.Reg {
		g := ir.NewInstr(ir.OpGuard)
		g.Addr, g.IsWrite, g.GLo, g.GHi = addr, write, 0, 8
		g.Dst = f.NewReg("", ir.Ptr(i64))
		b.Block().Append(g)
		return g.Dst
	}
	acc := f.NewReg("acc", i64)
	b.Assign(acc, ir.CI(0))
	loop := b.CountedLoop("i", ir.CI(0), ir.CI(n), ir.CI(1))
	elem := b.GEP(ir.CI(int64(base)), loop.IV, 8, 0)
	b.Store(i64, b.Add(loop.IV, acc), guard(elem, true))
	b.Assign(acc, b.Call(mixf, acc, b.Load(i64, guard(elem, false))))
	// A division, a remainder and a float op inline, then a GEP → guard →
	// load triple the decoder fuses into one instruction.
	q := b.Rem(b.Div(acc, b.Add(loop.IV, ir.CI(1))), ir.CI(7))
	b.Assign(acc, b.Add(acc, b.Bin(ir.FLT, b.IToF(q), ir.CF(3.5))))
	b.Assign(acc, b.Xor(acc, b.Load(i64, guard(b.GEP(ir.CI(int64(base)), loop.IV, 8, 0), false))))
	b.CloseLoop(loop)
	b.Ret(acc)
	m.AssignSites()
	ir.MustVerify(m)

	mach, err := New(m, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The first run materialises the objects and sizes the frame stack.
	want, err := mach.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st := rt.DSByID(0).Stats(); st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("structure is not all-resident: %+v", st)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if got, err := mach.Run(); err != nil || got != want {
			t.Fatalf("rerun = %#x, %v; want %#x", got, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run of %d guarded stores, loads and calls, want 0", allocs, n)
	}
	if calls := mach.Stats().Calls; calls < 12*n {
		t.Fatalf("only %d IR calls executed", calls)
	}
}
