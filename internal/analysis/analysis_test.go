package analysis

import (
	"fmt"
	"strings"
	"testing"

	"cards/internal/dsa"
	"cards/internal/ir"
	"cards/internal/workloads"
)

func analyzeListing1(t *testing.T) (*ir.Module, *dsa.Result, *Result) {
	t.Helper()
	m := ir.BuildListing1(128, 4)
	ds := dsa.Analyze(m)
	return m, ds, Analyze(m, ds)
}

func TestInductionVariables(t *testing.T) {
	m, _, res := analyzeListing1(t)
	setIVs := res.IVs["Set"]
	if len(setIVs) != 1 {
		t.Fatalf("Set IVs = %d, want 1", len(setIVs))
	}
	for r, iv := range setIVs {
		if r.Name != "j.iv" {
			t.Errorf("IV register = %s, want j.iv", r.Name)
		}
		if iv.Step != 1 {
			t.Errorf("step = %d, want 1", iv.Step)
		}
	}
	mainIVs := res.IVs["main"]
	if len(mainIVs) != 1 {
		t.Fatalf("main IVs = %d, want 1", len(mainIVs))
	}
	_ = m
}

func TestListing1UseScores(t *testing.T) {
	// Paper §4.2 / eq. 1: ds2 has higher usage than ds1 (it is set once
	// directly plus NTIMES in main's k-loop), so MaxUse must rank ds2
	// above ds1.
	m, ds, res := analyzeListing1(t)

	// Identify ds1/ds2 by the order of alloc calls in main.
	var ids []int
	m.Main().Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op == ir.OpCall && in.Callee == "alloc" && in.Dst != nil {
			got := ds.DSForValue("main", in.Dst)
			if len(got) != 1 {
				t.Fatalf("alloc result maps to %v", got)
			}
			ids = append(ids, got[0])
		}
		return true
	})
	ds1, ds2 := ids[0], ids[1]
	s1, s2 := res.Infos[ds1].UseScore, res.Infos[ds2].UseScore
	if s2 <= s1 {
		t.Fatalf("UseScore(ds2)=%d should exceed UseScore(ds1)=%d "+
			"(ds2 is touched by main's k-loop)", s2, s1)
	}
	// ds2 is accessed in one more loop than ds1 (the k-loop).
	if res.Infos[ds2].Loops != res.Infos[ds1].Loops+1 {
		t.Errorf("loops ds1=%d ds2=%d, want ds2 = ds1+1",
			res.Infos[ds1].Loops, res.Infos[ds2].Loops)
	}
}

func TestListing1Patterns(t *testing.T) {
	_, _, res := analyzeListing1(t)
	for _, info := range res.Infos {
		if info.Pattern != PatternStrided {
			t.Errorf("%s: pattern = %s, want strided (Figure 2 highlights "+
				"strided access)", info.DS.Name(), info.Pattern)
		}
		if info.Stride != 8 {
			t.Errorf("%s: stride = %d, want 8", info.DS.Name(), info.Stride)
		}
		if info.ObjSize != DefaultArrayObjSize {
			t.Errorf("%s: objsize = %d, want %d", info.DS.Name(), info.ObjSize, DefaultArrayObjSize)
		}
	}
}

func TestPointerChaseClassification(t *testing.T) {
	// walk(list) { p = head; loop { v += p.val; p = p.next } }
	m := ir.NewModule("chase")
	node := ir.NewStruct("node", ir.F("val", ir.I64()), ir.F("next", ir.Ptr(ir.I64())))

	build := m.NewFunc("build", ir.Ptr(node), ir.P("n", ir.I64()))
	bb := ir.NewBuilder(build)
	head := build.NewReg("head", ir.Ptr(node))
	bb.Assign(head, bb.Alloc(node, ir.CI(1)))
	bl := bb.CountedLoop("i", ir.CI(0), build.Params[0], ir.CI(1))
	p := bb.Alloc(node, ir.CI(1))
	bb.Store(ir.Ptr(node), head, bb.FieldAddr(p, node, "next"))
	bb.Assign(head, p)
	bb.CloseLoop(bl)
	bb.Ret(head)

	mainF := m.NewFunc("main", ir.Void())
	mb := ir.NewBuilder(mainF)
	lst := mb.Call(build, ir.CI(64))
	cur := mainF.NewReg("cur", ir.Ptr(node))
	mb.Assign(cur, lst)
	wl := mb.CountedLoop("w", ir.CI(0), ir.CI(64), ir.CI(1))
	mb.Load(ir.I64(), mb.FieldAddr(cur, node, "val"))
	nxt := mb.Load(ir.Ptr(node), mb.FieldAddr(cur, node, "next"))
	mb.Assign(cur, nxt)
	mb.CloseLoop(wl)
	mb.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	ds := dsa.Analyze(m)
	res := Analyze(m, ds)
	if len(res.Infos) != 1 {
		t.Fatalf("infos = %d, want 1", len(res.Infos))
	}
	info := res.Infos[0]
	if info.Pattern != PatternPointerChase {
		t.Fatalf("pattern = %s, want pointer-chase", info.Pattern)
	}
	if !info.DS.Recursive {
		t.Error("list should be recursive")
	}
	if info.ObjSize != ChaseObjSize {
		t.Errorf("objsize = %d, want %d (compact objects for linked nodes)",
			info.ObjSize, ChaseObjSize)
	}
}

func TestIndirectClassification(t *testing.T) {
	// Gather: for i { v += data[index[i]] } — graph-style access.
	m := ir.NewModule("gather")
	f := m.NewFunc("main", ir.Void())
	b := ir.NewBuilder(f)
	n := int64(64)
	data := b.Alloc(ir.I64(), ir.CI(n))
	index := b.Alloc(ir.I64(), ir.CI(n))
	loop := b.CountedLoop("i", ir.CI(0), ir.CI(n), ir.CI(1))
	idx := b.Load(ir.I64(), b.Idx(index, loop.IV))
	b.Load(ir.I64(), b.Idx(data, idx))
	b.CloseLoop(loop)
	b.Ret(nil)
	m.AssignSites()
	ir.MustVerify(m)

	ds := dsa.Analyze(m)
	res := Analyze(m, ds)
	if len(res.Infos) != 2 {
		t.Fatalf("infos = %d, want 2", len(res.Infos))
	}
	var dataInfo, indexInfo *DSInfo
	for _, info := range res.Infos {
		switch {
		case sameNode(info, ds, "main", data):
			dataInfo = info
		case sameNode(info, ds, "main", index):
			indexInfo = info
		}
	}
	if dataInfo == nil || indexInfo == nil {
		t.Fatal("could not identify data/index structures")
	}
	if indexInfo.Pattern != PatternStrided {
		t.Errorf("index pattern = %s, want strided", indexInfo.Pattern)
	}
	if dataInfo.Pattern != PatternIndirect {
		t.Errorf("data pattern = %s, want indirect", dataInfo.Pattern)
	}
}

func sameNode(info *DSInfo, ds *dsa.Result, fn string, reg *ir.Reg) bool {
	ids := ds.DSForValue(fn, reg)
	return len(ids) == 1 && ids[0] == info.DS.ID
}

func TestLoopDS(t *testing.T) {
	m, ds, res := analyzeListing1(t)
	// Set's j-loop touches both instances (across contexts).
	set := m.FuncByName("Set")
	setInfo := res.CFGs["Set"]
	if len(setInfo.Loops()) != 1 {
		t.Fatal("Set should have one loop")
	}
	jIDs := res.LoopDS[setInfo.Loops()[0].Header]
	if len(jIDs) != 2 {
		t.Fatalf("j-loop DS = %v, want both instances", jIDs)
	}
	// main's k-loop touches only ds2.
	mainInfo := res.CFGs["main"]
	if len(mainInfo.Loops()) != 1 {
		t.Fatal("main should have one loop")
	}
	kIDs := res.LoopDS[mainInfo.Loops()[0].Header]
	if len(kIDs) != 1 {
		t.Fatalf("k-loop DS = %v, want exactly ds2", kIDs)
	}
	var ids []int
	m.Main().Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if in.Op == ir.OpCall && in.Callee == "alloc" && in.Dst != nil {
			got := ds.DSForValue("main", in.Dst)
			ids = append(ids, got[0])
		}
		return true
	})
	if kIDs[0] != ids[1] {
		t.Errorf("k-loop DS = %d, want ds2 = %d", kIDs[0], ids[1])
	}
	_ = set
}

func TestReachScores(t *testing.T) {
	_, _, res := analyzeListing1(t)
	for _, info := range res.Infos {
		if info.ReachScore < 2 {
			t.Errorf("%s: reach = %d, want >= 2 (accessed via main->Set chain)",
				info.DS.Name(), info.ReachScore)
		}
		if len(info.AccessingFuncs) == 0 {
			t.Errorf("%s: no accessing functions recorded", info.DS.Name())
		}
	}
}

func TestPatternString(t *testing.T) {
	cases := map[Pattern]string{
		PatternUnknown:      "unknown",
		PatternStrided:      "strided",
		PatternPointerChase: "pointer-chase",
		PatternIndirect:     "indirect",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %s, want %s", p, p.String(), want)
		}
	}
}

// TestBFSGatherChains: in bfs's traversal the compiler names four
// gathers — row[fcur[q]] and row[fcur[q]+1] and col[j] (j starting at
// row[fcur[q]]) from the frontier loop's q, and visited[col[j]] from the
// adjacency loop's j — and none for the strided fcur[q].
func TestBFSGatherChains(t *testing.T) {
	m := workloads.BuildBFS(workloads.DefaultBFS()).Module
	res := Analyze(m, dsa.Analyze(m))
	got := map[string]bool{}
	m.FuncByName("bfs").Instrs(func(_ *ir.Block, _ int, in *ir.Instr) bool {
		if g := res.Gathers[in]; g != nil {
			s := fmt.Sprintf("%s+%d<%s:", g.IV, g.Step, g.Bound)
			for _, st := range g.Steps {
				s += fmt.Sprintf(" %s*%d+%d", st.Base, st.Scale, st.Off)
			}
			got[s] = true
		}
		return true
	})
	for _, want := range []string{
		"%q.iv+1<%cur_size: %fcur*8+0 %row*8+0 %col*8+0",
		"%q.iv+1<%cur_size: %fcur*8+0 %row*8+0",
		"%q.iv+1<%cur_size: %fcur*8+0 %row*8+8",
	} {
		if !got[want] {
			t.Errorf("no gather %q among %v", want, got)
		}
		delete(got, want)
	}
	for s := range got {
		if !strings.HasPrefix(s, "%j+1<") || !strings.HasSuffix(s, ": %col*8+0 %visited*8+0") {
			t.Errorf("unexpected gather %q", s)
		}
	}
	if len(got) != 1 {
		t.Errorf("want one gather rooted at j, got %v", got)
	}
}
