package prefetch

import (
	"slices"

	"cards/internal/farmem"
)

// Markov is a history-based (first-order Markov) prefetcher — this
// reproduction's take on the paper's closing observation that "the
// combination of static and dynamic information per data structure
// creates opportunities for advancing prefetching algorithms in CaRDS".
//
// It learns, per object, which objects tend to be touched next, and
// prefetches the learned successors. Unlike the stride and jump-pointer
// prefetchers it needs no structural regularity at all — only
// *repetition*: the second traversal of any fixed access sequence
// (iterating a hash map in bucket order, replaying a query plan,
// re-walking a tree) is covered even when the sequence looks random.
//
// The table is bounded: each object keeps up to SuccessorsPerObj learned
// successors with saturating confidence counters, and the whole table is
// capped at MaxEntries objects with first-in first-out replacement (the
// entry for the object being updated always wins).
type Markov struct {
	// SuccessorsPerObj bounds the learned successors per object.
	SuccessorsPerObj int
	// MaxEntries bounds the table size (objects tracked).
	MaxEntries int
	// Depth is how many steps of the learned chain to prefetch.
	Depth int

	table map[int][]markovEdge
	order []int // table keys, oldest first
	last  int
	have  bool
}

type markovEdge struct {
	next  int
	count uint16
}

// NewMarkov creates a Markov prefetcher with sensible bounds.
func NewMarkov() *Markov {
	return &Markov{
		SuccessorsPerObj: 3,
		MaxEntries:       1 << 16,
		Depth:            4,
		table:            make(map[int][]markovEdge),
	}
}

// Name implements farmem.Prefetcher.
func (mk *Markov) Name() string { return "markov" }

// OnAccess implements farmem.Prefetcher.
func (mk *Markov) OnAccess(r *farmem.Runtime, d *farmem.DS, idx int, miss bool) {
	if mk.have && mk.last != idx {
		mk.learn(mk.last, idx)
	}
	mk.last, mk.have = idx, true

	// Chase the highest-confidence chain Depth steps ahead.
	// The chain is Depth+1 objects at most: a scan of a stack array finds
	// a cycle for less than building and hashing into a map costs, and
	// this runs on every access, hits included.
	cur := idx
	var chain [8]int
	seen := append(chain[:0], idx)
	for step := 0; step < mk.Depth; step++ {
		next, ok := mk.best(cur)
		if !ok || slices.Contains(seen, next) {
			return
		}
		seen = append(seen, next)
		r.PrefetchObj(d, next)
		cur = next
	}
}

// QuietOnRepeat implements farmem.QuietPrefetcher: a repeat learns no
// transition and walks the same chain.
func (*Markov) QuietOnRepeat() bool { return true }

// learn records the transition prev -> next. With no room for a
// successor (SuccessorsPerObj <= 0) it learns nothing.
func (mk *Markov) learn(prev, next int) {
	if mk.SuccessorsPerObj <= 0 {
		return
	}
	edges := mk.table[prev]
	for i := range edges {
		if edges[i].next == next {
			if edges[i].count < 0xffff {
				edges[i].count++
			}
			return
		}
	}
	if len(edges) == 0 {
		mk.order = append(mk.order, prev)
	}
	if len(edges) < mk.SuccessorsPerObj {
		mk.table[prev] = append(edges, markovEdge{next: next, count: 1})
	} else {
		// Replace the weakest successor.
		weakest := 0
		for i := range edges {
			if edges[i].count < edges[weakest].count {
				weakest = i
			}
		}
		edges[weakest] = markovEdge{next: next, count: 1}
	}
	if len(mk.table) > mk.MaxEntries && mk.order[0] != prev {
		// Bounded table: evict the oldest entry.
		delete(mk.table, mk.order[0])
		mk.order = mk.order[1:]
	}
}

// best returns the highest-confidence successor of cur.
func (mk *Markov) best(cur int) (int, bool) {
	edges := mk.table[cur]
	if len(edges) == 0 {
		return 0, false
	}
	bi := 0
	for i := range edges {
		if edges[i].count > edges[bi].count {
			bi = i
		}
	}
	// Require a minimum of evidence before acting.
	if edges[bi].count < 2 {
		return 0, false
	}
	return edges[bi].next, true
}
