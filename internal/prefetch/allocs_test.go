package prefetch

import "testing"

// TestMarkovWarmOnAccessAllocFree is the allocation gate for the
// history-based prefetcher on the guard hit path: once a traversal is
// learned and resident, every access still follows the learned chain
// Depth steps (each PrefetchObj finds its object local), and that walk —
// cycle check included — must not touch the heap.
func TestMarkovWarmOnAccessAllocFree(t *testing.T) {
	const nObjs = 64
	r, walk, _ := permutationRuntime(t, nObjs, 2*nObjs, 7) // everything stays resident
	mk := NewMarkov()
	r.SetPrefetcher(0, mk)
	for pass := 0; pass < 3; pass++ { // every edge reaches the confidence to act on
		walk()
	}
	if len(mk.table) < nObjs-1 {
		t.Fatalf("learned %d objects' successors, want the whole traversal", len(mk.table))
	}
	if avg := testing.AllocsPerRun(20, func() { walk() }); avg != 0 {
		t.Fatalf("a warm pass over %d objects allocates %.1f times, want 0", nObjs, avg)
	}
}
