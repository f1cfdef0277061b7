package prefetch

import (
	"math/rand"
	"reflect"
	"testing"

	"cards/internal/farmem"
)

// permutationRuntime builds a remotable DS of nObjs objects whose data is
// already remote, and returns a walk function that touches the objects in
// a fixed pseudo-random permutation.
func permutationRuntime(t *testing.T, nObjs, budgetObjs int, seed int64) (*farmem.Runtime, func() uint64, []int) {
	t.Helper()
	obj := 4096
	r := farmem.New(farmem.Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: uint64(budgetObjs * obj),
	})
	r.RegisterDS(0, farmem.DSMeta{Name: "perm", ObjSize: obj})
	r.SetPlacement(0, farmem.PlaceRemotable)
	addr, err := r.DSAlloc(0, int64(nObjs*obj))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nObjs; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(i))
	}
	perm := rand.New(rand.NewSource(seed)).Perm(nObjs)
	walk := func() uint64 {
		var sum uint64
		for _, i := range perm {
			p, err := r.Guard(addr+uint64(i*obj), false)
			if err != nil {
				t.Fatal(err)
			}
			v, _ := r.ReadWord(p)
			sum += v
		}
		return sum
	}
	return r, walk, perm
}

func TestMarkovLearnsRepeatedTraversal(t *testing.T) {
	nObjs, budget := 64, 24
	want := uint64(nObjs*(nObjs-1)) / 2

	measure := func(pf farmem.Prefetcher) (uint64, farmem.DSStats) {
		r, walk, _ := permutationRuntime(t, nObjs, budget, 7)
		if pf != nil {
			r.SetPrefetcher(0, pf)
		}
		start := r.Clock().Now()
		for pass := 0; pass < 4; pass++ {
			if got := walk(); got != want {
				t.Fatalf("walk sum = %d, want %d", got, want)
			}
		}
		return r.Clock().Now() - start, r.DSByID(0).Stats()
	}

	plain, _ := measure(nil)
	stride, _ := measure(NewStride(8))
	markov, st := measure(NewMarkov())

	// The permutation defeats the stride prefetcher (no majority delta)
	// but is identical every pass, so Markov covers passes 2..4.
	if st.PrefetchHits == 0 {
		t.Fatal("markov never hit")
	}
	if markov >= plain {
		t.Errorf("markov (%d cycles) should beat no prefetching (%d)", markov, plain)
	}
	if markov >= stride {
		t.Errorf("markov (%d cycles) should beat stride (%d) on a repeated permutation",
			markov, stride)
	}
	acc := float64(st.PrefetchHits) / float64(st.PrefetchIssued)
	t.Logf("plain=%d stride=%d markov=%d cycles, markov hits=%d acc=%.2f",
		plain, stride, markov, st.PrefetchHits, acc)
}

func TestMarkovTableBounds(t *testing.T) {
	mk := NewMarkov()
	mk.MaxEntries = 8
	mk.SuccessorsPerObj = 2
	// Feed a long random transition stream; the table must stay bounded.
	rng := rand.New(rand.NewSource(1))
	prev := 0
	for i := 0; i < 10000; i++ {
		next := rng.Intn(1000)
		mk.learn(prev, next)
		prev = next
	}
	if len(mk.table) > mk.MaxEntries+1 {
		t.Fatalf("table grew to %d entries (cap %d)", len(mk.table), mk.MaxEntries)
	}
	for k, edges := range mk.table {
		if len(edges) > mk.SuccessorsPerObj {
			t.Fatalf("entry %d has %d successors (cap %d)", k, len(edges), mk.SuccessorsPerObj)
		}
	}
}

// TestMarkovWithoutSuccessorsLearnsNothing: with SuccessorsPerObj at
// zero or below, learning is a no-op rather than a replacement on an
// empty edge list.
func TestMarkovWithoutSuccessorsLearnsNothing(t *testing.T) {
	for _, n := range []int{0, -1} {
		mk := NewMarkov()
		mk.SuccessorsPerObj = n
		mk.learn(1, 2)
		mk.learn(1, 2)
		mk.learn(2, 3)
		if len(mk.table) != 0 || len(mk.order) != 0 {
			t.Fatalf("SuccessorsPerObj %d: learned %d entries, %d ordered; want none", n, len(mk.table), len(mk.order))
		}
		if _, ok := mk.best(1); ok {
			t.Fatalf("SuccessorsPerObj %d: a prediction from nothing learned", n)
		}
	}
}

func TestMarkovRequiresEvidence(t *testing.T) {
	mk := NewMarkov()
	mk.learn(1, 2)
	if _, ok := mk.best(1); ok {
		t.Fatal("a single observation should not trigger prefetching")
	}
	mk.learn(1, 2)
	next, ok := mk.best(1)
	if !ok || next != 2 {
		t.Fatalf("best(1) = %d, %v; want 2 after two observations", next, ok)
	}
	if _, ok := mk.best(99); ok {
		t.Fatal("unknown object should have no prediction")
	}
}

func TestMarkovPrefersStrongerSuccessor(t *testing.T) {
	mk := NewMarkov()
	for i := 0; i < 5; i++ {
		mk.learn(1, 2)
	}
	for i := 0; i < 2; i++ {
		mk.learn(1, 3)
	}
	next, ok := mk.best(1)
	if !ok || next != 2 {
		t.Fatalf("best(1) = %d, want the 5-count successor 2", next)
	}
}

// TestMarkovReplacementIsDeterministic: once the table passes
// MaxEntries, the entry evicted is the oldest, not whichever one map
// iteration yields first, so two fresh prefetchers fed the same stream
// hold the same table — and a run's prefetch decisions, and its virtual
// time, do not change from one run to the next.
func TestMarkovReplacementIsDeterministic(t *testing.T) {
	r := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: 1 << 20})
	defer r.Close()
	r.RegisterDS(0, farmem.DSMeta{ObjSize: 4096})
	r.SetPlacement(0, farmem.PlaceRemotable)
	if _, err := r.DSAlloc(0, 64*4096); err != nil {
		t.Fatal(err)
	}
	d := r.DSByID(0)
	a, b := NewMarkov(), NewMarkov()
	a.MaxEntries, b.MaxEntries = 8, 8
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 2000; step++ {
		idx := rng.Intn(64)
		a.OnAccess(r, d, idx, false)
		b.OnAccess(r, d, idx, false)
		if len(a.table) > 9 {
			t.Fatalf("step %d: %d entries, bound 8", step, len(a.table))
		}
	}
	if !reflect.DeepEqual(a.table, b.table) {
		t.Fatalf("one stream, two tables:\n%v\n%v", a.table, b.table)
	}
}
