package prefetch

import (
	"fmt"
	"math/rand"
	"testing"

	"cards/internal/farmem"
)

const objSize = 4096

// scanSetup builds a remotable DS of n objects whose contents are already
// remote (written, then pushed out by touching a filler DS).
func scanSetup(t *testing.T, nObjs int, budgetObjs int) (*farmem.Runtime, *farmem.DS, uint64) {
	t.Helper()
	r := farmem.New(farmem.Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: uint64(budgetObjs * objSize),
	})
	if _, err := r.RegisterDS(0, farmem.DSMeta{Name: "data", ObjSize: objSize}); err != nil {
		t.Fatal(err)
	}
	r.SetPlacement(0, farmem.PlaceRemotable)
	addr, err := r.DSAlloc(0, int64(nObjs*objSize))
	if err != nil {
		t.Fatal(err)
	}
	// Populate: write object i with value i, in reverse so that a
	// subsequent forward scan finds early objects evicted.
	for i := nObjs - 1; i >= 0; i-- {
		p, err := r.Guard(addr+uint64(i*objSize), true)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WriteWord(p, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return r, r.DSByID(0), addr
}

func TestStrideMajority(t *testing.T) {
	s := NewStride(4)
	if _, ok := s.majority(); ok {
		t.Fatal("empty history should have no majority")
	}
	for _, d := range []int{1, 1, 1, 2, 1} {
		s.history[s.histPos] = d
		s.histPos = (s.histPos + 1) % len(s.history)
		s.histLen++
	}
	d, ok := s.majority()
	if !ok || d != 1 {
		t.Fatalf("majority = %d, %v; want 1, true", d, ok)
	}
}

func TestStridePrefetchHidesScanMisses(t *testing.T) {
	nObjs, budget := 64, 32
	r, d, addr := scanSetup(t, nObjs, budget)
	r.SetPrefetcher(0, NewStride(8))

	// Forward scan: after the detector locks on, later objects should be
	// in flight before demand access reaches them.
	for i := 0; i < nObjs; i++ {
		p, err := r.Guard(addr+uint64(i*objSize), false)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := r.ReadWord(p)
		if v != uint64(i) {
			t.Fatalf("obj %d = %d (data corrupted by prefetch)", i, v)
		}
	}
	st := d.Stats()
	if st.PrefetchIssued == 0 {
		t.Fatal("stride prefetcher never fired")
	}
	if st.PrefetchHits == 0 {
		t.Fatal("no prefetch hits on a pure forward scan")
	}
	if acc := Accuracy(d); acc < 0.5 {
		t.Errorf("accuracy = %.2f, want >= 0.5 on forward scan", acc)
	}
	if cov := Coverage(d); cov < 0.3 {
		t.Errorf("coverage = %.2f, want >= 0.3 on forward scan", cov)
	}
}

func TestStridePrefetchReducesTime(t *testing.T) {
	run := func(pf farmem.Prefetcher) uint64 {
		nObjs, budget := 64, 32
		r, _, addr := scanSetup(t, nObjs, budget)
		if pf != nil {
			r.SetPrefetcher(0, pf)
		}
		start := r.Clock().Now()
		for i := 0; i < nObjs; i++ {
			if _, err := r.Guard(addr+uint64(i*objSize), false); err != nil {
				t.Fatal(err)
			}
		}
		return r.Clock().Now() - start
	}
	plain := run(nil)
	withPF := run(NewStride(8))
	if withPF >= plain {
		t.Fatalf("stride prefetch did not reduce scan time: %d vs %d", withPF, plain)
	}
}

func TestStrideBackwardScan(t *testing.T) {
	nObjs, budget := 64, 32
	r, d, addr := scanSetup(t, nObjs, budget)
	r.SetPrefetcher(0, NewStride(8))
	// Touch the filler direction first: populate wrote in reverse, so
	// the tail of the array is resident; scan backwards from the front.
	for i := nObjs - 1; i >= 0; i-- {
		if _, err := r.Guard(addr+uint64(i*objSize), false); err != nil {
			t.Fatal(err)
		}
	}
	// Negative stride must be detected too (deltas of -1).
	if d.Stats().PrefetchIssued == 0 {
		t.Skip("backward scan stayed resident; no pressure")
	}
}

func TestJumpPrefetcherListChase(t *testing.T) {
	// Linked list with 64-byte objects: node i in object i.
	elem := 64
	nNodes := 256
	budget := 64 * elem
	r := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: uint64(budget)})
	r.RegisterDS(0, farmem.DSMeta{Name: "list", ObjSize: elem, ElemSize: elem,
		Pattern: farmem.PatternPointerChase, PtrOffsets: []int{8}})
	r.SetPlacement(0, farmem.PlaceRemotable)
	addr, err := r.DSAlloc(0, int64(nNodes*elem))
	if err != nil {
		t.Fatal(err)
	}
	// Build list: node i = {val: i, next: &node[i+1]}.
	for i := nNodes - 1; i >= 0; i-- {
		base := addr + uint64(i*elem)
		p, err := r.Guard(base, true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(i))
		p2, err := r.Guard(base+8, true)
		if err != nil {
			t.Fatal(err)
		}
		next := uint64(0)
		if i+1 < nNodes {
			next = addr + uint64((i+1)*elem)
		}
		r.WriteWord(p2, next)
	}

	chase := func(pf farmem.Prefetcher) uint64 {
		// Fresh runtime per measurement for identical cold state.
		r2 := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: uint64(budget)})
		r2.RegisterDS(0, farmem.DSMeta{Name: "list", ObjSize: elem, ElemSize: elem,
			Pattern: farmem.PatternPointerChase, PtrOffsets: []int{8}})
		r2.SetPlacement(0, farmem.PlaceRemotable)
		a2, _ := r2.DSAlloc(0, int64(nNodes*elem))
		for i := nNodes - 1; i >= 0; i-- {
			base := a2 + uint64(i*elem)
			p, _ := r2.Guard(base, true)
			r2.WriteWord(p, uint64(i))
			p2, _ := r2.Guard(base+8, true)
			next := uint64(0)
			if i+1 < nNodes {
				next = a2 + uint64((i+1)*elem)
			}
			r2.WriteWord(p2, next)
		}
		if pf != nil {
			r2.SetPrefetcher(0, pf)
		}
		start := r2.Clock().Now()
		cur := a2
		sum := uint64(0)
		for cur != 0 {
			p, err := r2.Guard(cur, false)
			if err != nil {
				t.Fatal(err)
			}
			v, _ := r2.ReadWord(p)
			sum += v
			pn, err := r2.Guard(cur+8, false)
			if err != nil {
				t.Fatal(err)
			}
			cur, _ = r2.ReadWord(pn)
		}
		wantSum := uint64(nNodes*(nNodes-1)) / 2
		if sum != wantSum {
			t.Fatalf("list sum = %d, want %d", sum, wantSum)
		}
		return r2.Clock().Now() - start
	}
	plain := chase(nil)
	jumped := chase(NewJump(4, 8))
	if jumped >= plain {
		t.Fatalf("jump prefetcher did not help: %d vs %d cycles", jumped, plain)
	}
	_ = addr
}

func TestGreedyFollowsPointers(t *testing.T) {
	// Structure where object 0's element points at object 5; object 5
	// must be REMOTE for the prefetch to have work to do, so populate
	// everything and let eviction pressure push it out.
	elem := 64
	nObjs := 64
	budgetObjs := 16
	r := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: uint64(budgetObjs * elem)})
	r.RegisterDS(0, farmem.DSMeta{Name: "t", ObjSize: elem, ElemSize: elem,
		PtrOffsets: []int{8}})
	r.SetPlacement(0, farmem.PlaceRemotable)
	addr, _ := r.DSAlloc(0, int64(nObjs*elem))
	// Touch object 5 first, then flood the cache so it is evicted.
	if _, err := r.Guard(addr+uint64(5*elem), true); err != nil {
		t.Fatal(err)
	}
	for i := nObjs - 1; i >= 8; i-- {
		if _, err := r.Guard(addr+uint64(i*elem), true); err != nil {
			t.Fatal(err)
		}
	}
	// obj 0 field@8 -> obj 5.
	p, err := r.Guard(addr+8, true)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(p, addr+uint64(5*elem))

	d := r.DSByID(0)
	g := NewGreedy(elem, []int{8})
	g.OnAccess(r, d, 0, false)
	if d.Stats().PrefetchIssued != 1 {
		t.Fatalf("greedy issued %d prefetches, want 1 (obj 5)", d.Stats().PrefetchIssued)
	}
	// Accessing obj 5 should now be a prefetch hit.
	if _, err := r.Guard(addr+uint64(5*elem), false); err != nil {
		t.Fatal(err)
	}
	if d.Stats().PrefetchHits != 1 {
		t.Fatal("obj 5 access was not a prefetch hit")
	}
}

func TestGreedyIgnoresUntaggedAndSelf(t *testing.T) {
	elem := 64
	r := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: uint64(16 * elem)})
	r.RegisterDS(0, farmem.DSMeta{Name: "t", ObjSize: elem, ElemSize: elem, PtrOffsets: []int{8}})
	r.SetPlacement(0, farmem.PlaceRemotable)
	addr, _ := r.DSAlloc(0, int64(4*elem))
	p, _ := r.Guard(addr+8, true)
	r.WriteWord(p, 12345) // untagged garbage
	d := r.DSByID(0)
	NewGreedy(elem, []int{8}).OnAccess(r, d, 0, false)
	if d.Stats().PrefetchIssued != 0 {
		t.Fatal("greedy must not prefetch untagged words")
	}
	// Self-pointer: no prefetch.
	p2, _ := r.Guard(addr+8, true)
	r.WriteWord(p2, addr)
	NewGreedy(elem, []int{8}).OnAccess(r, d, 0, false)
	if d.Stats().PrefetchIssued != 0 {
		t.Fatal("greedy must not prefetch the current object")
	}
}

func TestAdaptiveDisablesInaccuratePrefetcher(t *testing.T) {
	// A hostile access pattern (random-ish jumps) makes stride prefetch
	// useless; adaptive must stop issuing.
	nObjs := 256
	r := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: uint64(32 * objSize)})
	r.RegisterDS(0, farmem.DSMeta{Name: "d", ObjSize: objSize})
	r.SetPlacement(0, farmem.PlaceRemotable)
	addr, _ := r.DSAlloc(0, int64(nObjs*objSize))
	for i := nObjs - 1; i >= 0; i-- {
		p, err := r.Guard(addr+uint64(i*objSize), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(i))
	}
	a := NewAdaptive(NewStride(8))
	a.Window = 32
	r.SetPrefetcher(0, a)
	// Strided bursts of 3 then a big jump: detector keeps firing while
	// hits stay rare.
	idx := 0
	for step := 0; step < 2000; step++ {
		if _, err := r.Guard(addr+uint64(idx*objSize), false); err != nil {
			t.Fatal(err)
		}
		if step%3 == 2 {
			idx = (idx + 61) % nObjs
		} else {
			idx = (idx + 1) % nObjs
		}
	}
	if a.disabledUntil == 0 && Accuracy(r.DSByID(0)) < a.MinAccuracy {
		t.Errorf("adaptive never disabled despite accuracy %.2f", Accuracy(r.DSByID(0)))
	}
}

func TestSelect(t *testing.T) {
	cases := []struct {
		h    Hints
		want string
	}{
		{Hints{Pattern: farmem.PatternStrided}, "adaptive(stride)"},
		{Hints{Pattern: farmem.PatternPointerChase, PtrOffsets: []int{8}}, "adaptive(jump-pointer)"},
		{Hints{Pattern: farmem.PatternPointerChase, PtrOffsets: []int{8, 16}}, "adaptive(greedy-recursive)"},
	}
	for _, c := range cases {
		p := Select(c.h)
		if p == nil || p.Name() != c.want {
			t.Errorf("Select(%+v) = %v, want %s", c.h, name(p), c.want)
		}
	}
	if p := Select(Hints{Pattern: farmem.PatternIndirect}); p == nil || p.Name() != "adaptive(markov)" {
		t.Errorf("indirect pattern should get the adaptive Markov prefetcher, got %v", name(p))
	}
	if Select(Hints{Pattern: farmem.PatternUnknown}) != nil {
		t.Error("unknown pattern should get no prefetcher")
	}
}

func name(p farmem.Prefetcher) string {
	if p == nil {
		return "<nil>"
	}
	return p.Name()
}

// alwaysCalled hides a prefetcher's QuietOnRepeat, so the runtime calls
// it on every deref, repeats included: the reference a runtime that
// honours quiet marks is held to.
type alwaysCalled struct{ farmem.Prefetcher }

// TestStrideMemoNeverSuppressesAnIssue drives two identical runtimes in
// lockstep through seeded random schedules — strided runs in both
// directions with several touches per object, repeats, jumps, explicit
// prefetch hints, and traffic on a second structure that evicts out of
// the first one's lookahead window — under cache budgets and in-flight
// limits small enough that hints are regularly dropped and must be
// re-offered later. One runtime honours Stride's quiet marks, skipping
// OnAccess on a repeat whose walk met no remote object while no object
// becomes remote; the other calls Stride, which walks, on every access. Every
// runtime event (prefetch, fetch, eviction, prefetch hit...) must be
// identical in kind, object and virtual cycle, and the clocks and
// counters must agree at the end.
func TestStrideMemoNeverSuppressesAnIssue(t *testing.T) {
	const (
		dataObjs, fillObjs = 64, 32
		elem               = 512 // 8 touches per object on a unit-stride run
		steps              = 4000
	)
	type world struct {
		r      *farmem.Runtime
		events []farmem.Event
		base   [2]uint64
	}
	build := func(pf farmem.Prefetcher, budgetObjs, maxInflight int) *world {
		w := &world{}
		w.r = farmem.New(farmem.Config{
			PinnedBudget:    1 << 20,
			RemotableBudget: uint64(budgetObjs * objSize),
			MaxInflight:     maxInflight,
		})
		for id, n := range []int{dataObjs, fillObjs} {
			if _, err := w.r.RegisterDS(id, farmem.DSMeta{ObjSize: objSize}); err != nil {
				t.Fatal(err)
			}
			w.r.SetPlacement(id, farmem.PlaceRemotable)
			addr, err := w.r.DSAlloc(id, int64(n*objSize))
			if err != nil {
				t.Fatal(err)
			}
			w.base[id] = addr
		}
		w.r.SetPrefetcher(0, pf)
		w.r.SetEventHook(func(e farmem.Event) { w.events = append(w.events, e) })
		return w
	}

	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := 10 + rng.Intn(30)
		maxInflight := 1 + rng.Intn(10)
		memo := build(NewStride(Depth), budget, maxInflight)
		ref := build(alwaysCalled{NewStride(Depth)}, budget, maxInflight)

		pos, dir := 0, 1
		for step := 0; step < steps; step++ {
			var do func(w *world) error
			switch p := rng.Intn(100); {
			case p < 60: // continue the run
				pos += dir
			case p < 70: // touch the same element again
			case p < 75: // turn around
				dir = -dir
				pos += dir
			case p < 82: // jump
				pos = rng.Intn(dataObjs * objSize / elem)
			case p < 86: // explicit hint somewhere ahead
				off := uint64(rng.Intn(dataObjs * objSize))
				do = func(w *world) error { w.r.Prefetch(w.base[0] + off); return nil }
			default: // the other structure wants frames
				off, write := uint64(rng.Intn(fillObjs*objSize))&^7, rng.Intn(2) == 0
				do = func(w *world) error { _, err := w.r.Guard(w.base[1]+off, write); return err }
			}
			if do == nil {
				pos = (pos + dataObjs*objSize/elem) % (dataObjs * objSize / elem)
				off, write := uint64(pos*elem), rng.Intn(4) == 0
				do = func(w *world) error { _, err := w.r.Guard(w.base[0]+off, write); return err }
			}
			if err := do(memo); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if err := do(ref); err != nil {
				t.Fatalf("seed %d step %d (reference): %v", seed, step, err)
			}
			if a, b := memo.r.Clock().Now(), ref.r.Clock().Now(); a != b {
				t.Fatalf("seed %d step %d: clock %d with the memo, %d walking every access", seed, step, a, b)
			}
		}
		if len(memo.events) != len(ref.events) {
			t.Fatalf("seed %d: %d events with the memo, %d walking every access", seed, len(memo.events), len(ref.events))
		}
		for i := range ref.events {
			if memo.events[i] != ref.events[i] {
				t.Fatalf("seed %d: event %d is %v with the memo, %v walking every access", seed, i, memo.events[i], ref.events[i])
			}
		}
		if a, b := memo.r.DSByID(0).Stats(), ref.r.DSByID(0).Stats(); a != b {
			t.Fatalf("seed %d: counters %+v with the memo, %+v walking every access", seed, a, b)
		}
		if memo.r.DSByID(0).Stats().PrefetchIssued == 0 {
			t.Fatalf("seed %d: schedule issued no prefetch at all", seed)
		}
	}
}

// countedAdaptive counts the OnAccess calls an Adaptive receives.
type countedAdaptive struct {
	*Adaptive
	calls uint64
}

func (c *countedAdaptive) OnAccess(r *farmem.Runtime, d *farmem.DS, idx int, miss bool) {
	c.calls++
	c.Adaptive.OnAccess(r, d, idx, miss)
}

// TestQuietRepeatsCountAsObservations holds a runtime that honours quiet
// marks to one that calls the prefetcher on every deref, for
// Adaptive(Stride), Adaptive(Markov) and Adaptive(Jump): n repeats the
// first runtime skipped must equal n more observations, so the adaptive
// window evaluations and back-offs land on the same accesses. Seeded
// random streams over a small object space mix repeats (same element,
// other elements of the same object), runs, jumps that make prefetches
// useless, explicit hints and eviction traffic on a second structure,
// under a short evaluation window and a high accuracy bar so that
// back-offs start and end. Events and their instants, clocks, both
// structures' counters and the monitors' states must agree.
func TestQuietRepeatsCountAsObservations(t *testing.T) {
	const (
		dataObjs, fillObjs = 24, 16
		elem               = 1024
		steps              = 3000
	)
	inners := map[string]func() farmem.Prefetcher{
		"stride": func() farmem.Prefetcher { return NewStride(4) },
		"markov": func() farmem.Prefetcher { return NewMarkov() },
		"jump":   func() farmem.Prefetcher { return NewJump(2, 4) },
	}
	for name, inner := range inners {
		var skipped, backoffs, resumes uint64
		for seed := int64(1); seed <= 16; seed++ {
			rng := rand.New(rand.NewSource(seed))
			budget, maxInflight := 10+rng.Intn(36), 2+rng.Intn(6) // from thrashing to all resident
			window := uint64(8 + rng.Intn(24))
			type world struct {
				r      *farmem.Runtime
				a      *countedAdaptive
				events []farmem.Event
				base   [2]uint64
			}
			build := func(always bool) *world {
				w := &world{r: farmem.New(farmem.Config{
					PinnedBudget:    1 << 20,
					RemotableBudget: uint64(budget * objSize),
					MaxInflight:     maxInflight,
				})}
				for id, n := range []int{dataObjs, fillObjs} {
					w.r.RegisterDS(id, farmem.DSMeta{ObjSize: objSize})
					w.r.SetPlacement(id, farmem.PlaceRemotable)
					addr, err := w.r.DSAlloc(id, int64(n*objSize))
					if err != nil {
						t.Fatal(err)
					}
					w.base[id] = addr
				}
				w.a = &countedAdaptive{Adaptive: &Adaptive{Inner: inner(), MinAccuracy: 0.5, Window: window}}
				if always {
					w.r.SetPrefetcher(0, alwaysCalled{w.a})
				} else {
					w.r.SetPrefetcher(0, w.a)
				}
				w.r.SetEventHook(func(e farmem.Event) { w.events = append(w.events, e) })
				return w
			}
			quiet, ref := build(false), build(true)
			defer quiet.r.Close()
			defer ref.r.Close()

			pos := 0
			for step := 0; step < steps; step++ {
				var do func(w *world) error
				switch p := rng.Intn(100); {
				case p < 45: // the same element again
				case p < 65: // another element of the same object
					pos = pos - pos%(objSize/elem) + rng.Intn(objSize/elem)
				case p < 82: // on
					pos = (pos + 1) % (dataObjs * objSize / elem)
				case p < 90: // anywhere
					pos = rng.Intn(dataObjs * objSize / elem)
				case p < 94:
					off := uint64(rng.Intn(dataObjs * objSize))
					do = func(w *world) error { w.r.Prefetch(w.base[0] + off); return nil }
				default:
					off, write := uint64(rng.Intn(fillObjs*objSize))&^7, rng.Intn(2) == 0
					do = func(w *world) error { _, err := w.r.Guard(w.base[1]+off, write); return err }
				}
				if do == nil {
					off, write := uint64(pos*elem), rng.Intn(4) == 0
					do = func(w *world) error { _, err := w.r.Guard(w.base[0]+off, write); return err }
				}
				wasOff := ref.a.disabledUntil != 0
				if err := do(quiet); err != nil {
					t.Fatalf("%s seed %d step %d: %v", name, seed, step, err)
				}
				if err := do(ref); err != nil {
					t.Fatalf("%s seed %d step %d (always called): %v", name, seed, step, err)
				}
				if a, b := quiet.r.Clock().Now(), ref.r.Clock().Now(); a != b {
					t.Fatalf("%s seed %d step %d: clock %d honouring quiet marks, %d calling always", name, seed, step, a, b)
				}
				if isOff := ref.a.disabledUntil != 0; isOff && !wasOff {
					backoffs++
				} else if wasOff && !isOff {
					resumes++
				}
			}
			if fmt.Sprint(quiet.events) != fmt.Sprint(ref.events) {
				t.Fatalf("%s seed %d: events differ:\n%v\nalways called:\n%v", name, seed, quiet.events, ref.events)
			}
			for id := 0; id < 2; id++ {
				if a, b := quiet.r.DSByID(id).Stats(), ref.r.DSByID(id).Stats(); a != b {
					t.Fatalf("%s seed %d: ds %d counters %+v honouring quiet marks, %+v calling always", name, seed, id, a, b)
				}
			}
			if a, b := quiet.r.Stats(), ref.r.Stats(); a != b {
				t.Fatalf("%s seed %d: runtime counters %+v honouring quiet marks, %+v calling always", name, seed, a, b)
			}
			n := quiet.r.DSByID(0).TakeRepeats()
			skipped += ref.a.calls - quiet.a.calls
			if qa, ra := quiet.a.Adaptive, ref.a.Adaptive; qa.observed+n != ra.observed || qa.disabledUntil != ra.disabledUntil ||
				qa.lastIssued != ra.lastIssued || qa.lastHits != ra.lastHits {
				t.Fatalf("%s seed %d: monitor %+v with %d repeats untaken honouring quiet marks, %+v calling always",
					name, seed, *qa, n, *ra)
			}
		}
		if skipped == 0 || backoffs == 0 || resumes == 0 {
			t.Fatalf("%s: %d repeats skipped, %d back-offs, %d resumes: the streams do not reach every path", name, skipped, backoffs, resumes)
		}
		t.Logf("%s: %d repeats skipped, %d back-offs, %d resumes", name, skipped, backoffs, resumes)
	}
}
