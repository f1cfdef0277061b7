package farmem

import (
	"testing"

	"cards/internal/testutil"
)

// gatherRig is a gather site over two structures of 64-byte objects: an
// index array A (two objects, resident) whose entry i holds i*8, and a
// target array B of 16 objects, all remote, object i holding 1000+i in
// word 0 and 2000+i in word 1. The site reads B[A[q]] in a loop over
// q < 16, so its chain names B object q for iteration q.
type gatherRig struct {
	r    *Runtime
	a, b uint64
	fr   []uint64 // q, bound, A, B
	memo HitMemo
}

const gatherObj = 64

func newGatherRig(t *testing.T, store Store, gathers bool) *gatherRig {
	t.Helper()
	g := &gatherRig{r: New(Config{PinnedBudget: 1 << 16, RemotableBudget: 8 * gatherObj, Store: store, BreakerThreshold: 1})}
	r := g.r
	for id, base := range []*uint64{&g.a, &g.b} {
		r.RegisterDS(id, DSMeta{ObjSize: gatherObj, ElemSize: 8})
		r.SetPlacement(id, PlaceRemotable)
		addr, err := r.DSAlloc(id, int64((2+14*id)*gatherObj))
		if err != nil {
			t.Fatal(err)
		}
		*base = addr
	}
	for i := 0; i < 16; i++ {
		for w := uint64(0); w < 2; w++ {
			p, err := r.Guard(g.b+uint64(i*gatherObj)+8*w, true)
			if err != nil {
				t.Fatal(err)
			}
			r.WriteWord(p, 1000*(w+1)+uint64(i))
		}
	}
	for r.RemotableUsed() > 0 {
		if err := r.evictOne(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		p, err := r.Guard(g.a+uint64(8*i), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(8*i))
	}
	g.fr = []uint64{0, 16, g.a, g.b}
	if gathers {
		g.memo.Gather = &Gather{Frame: func() []uint64 { return g.fr }, IV: 0, Bound: 1, Step: 1,
			Steps: []GatherStep{{Base: 2, Scale: 8}, {Base: 3, Scale: 8}}}
	}
	checkTable(t, r)
	return g
}

// read runs iteration q: it loads A[q], as the program does, then word
// w of B object q through the site.
func (g *gatherRig) read(t *testing.T, q, w int) {
	t.Helper()
	g.fr[0] = uint64(q)
	if _, err := g.r.Guard(g.a+uint64(8*q), false); err != nil {
		t.Fatal(err)
	}
	p, err := g.r.GuardSite(&g.memo, g.b+uint64(q*gatherObj+8*w), false, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := g.r.ReadWord(p); v != 1000*uint64(w+1)+uint64(q) {
		t.Fatalf("B[%d] word %d reads %d", q, w, v)
	}
	checkTable(t, g.r)
}

// entryOf returns object idx of B's entry, or nil.
func (g *gatherRig) entryOf(idx int) *entry { return g.r.dss[1].objs[idx].ent }

// TestGatherServesLaterMisses: a site's miss gathers the next
// iterations' targets up to half the remotable budget, before its own
// read; each later miss is served from its gather, charged as a
// synchronous miss, and gathers the next.
func TestGatherServesLaterMisses(t *testing.T) {
	g := newGatherRig(t, testutil.InlineAsync{ObjStore: NewMapStore()}, true)
	g.read(t, 0, 0)
	if st := g.r.Stats(); st.GathersIssued != 4 || g.r.gatherBytes != 4*gatherObj {
		t.Fatalf("first miss gathered %d objects, %d bytes; want 4 (the cap), %d", st.GathersIssued, g.r.gatherBytes, 4*gatherObj)
	}
	for q := 1; q < 16; q++ {
		g.read(t, q, 1)
	}
	st := g.r.Stats()
	if st.GatherHits != 15 || st.GathersIssued != 15 || st.RemoteFetches < 16 {
		t.Fatalf("%d gathers issued, %d served, %d remote fetches; want 15, 15, ≥ 16", st.GathersIssued, st.GatherHits, st.RemoteFetches)
	}
}

// TestGatherIsBelowVirtualTime: a run whose site carries a gather and
// one whose site does not end with the same clock, counters, per-DS
// statistics and event stream.
func TestGatherIsBelowVirtualTime(t *testing.T) {
	var evs [2][]Event
	var rigs [2]*gatherRig
	for i, gathers := range []bool{false, true} {
		g := newGatherRig(t, testutil.InlineAsync{ObjStore: NewMapStore()}, gathers)
		g.r.SetEventHook(func(e Event) { evs[i] = append(evs[i], e) })
		for q := 0; q < 16; q++ {
			g.read(t, q, q%2)
		}
		for q := 15; q >= 0; q-- {
			g.read(t, q, 0)
		}
		rigs[i] = g
	}
	a, b := rigs[0].r, rigs[1].r
	sa, sb := a.Stats(), b.Stats()
	if sb.GatherHits == 0 {
		t.Fatal("no miss was served from a gather")
	}
	sb.GathersIssued, sb.GatherHits = 0, 0
	if a.Clock().Now() != b.Clock().Now() || sa != sb || a.dss[1].Stats() != b.dss[1].Stats() || len(evs[0]) != len(evs[1]) {
		t.Fatalf("plain and gathering runs differ: clock %d/%d\n%+v\n%+v", a.Clock().Now(), b.Clock().Now(), sa, sb)
	}
	for i := range evs[0] {
		if evs[0][i] != evs[1][i] {
			t.Fatalf("event %d differs: %+v, %+v", i, evs[0][i], evs[1][i])
		}
	}
}

// TestFailedGatherReadsSynchronously: a gather whose read failed is
// dropped without counting against the breaker (threshold 1 here), and
// the miss reads synchronously.
func TestFailedGatherReadsSynchronously(t *testing.T) {
	store := &testutil.FailingAsync{ObjStore: NewMapStore()}
	g := newGatherRig(t, store, true)
	for q := 0; q < 16; q++ {
		g.read(t, q, 0)
	}
	st := g.r.Stats()
	if st.GathersIssued == 0 || st.GatherHits != 0 || g.r.BreakerState() != BreakerClosed {
		t.Fatalf("%d gathers issued, %d served, breaker %v; want some, none, closed", st.GathersIssued, st.GatherHits, g.r.BreakerState())
	}
}

// TestGatherMeetsPrefetch: PrefetchObj on a gathered object decides and
// charges as on an object with no entry — a twin without gathers is the
// reference — and adopts the gather's read as its own.
func TestGatherMeetsPrefetch(t *testing.T) {
	store := &countingStore{Store: testutil.InlineAsync{ObjStore: NewMapStore()}}
	plain := newGatherRig(t, &countingStore{Store: testutil.InlineAsync{ObjStore: NewMapStore()}}, false)
	g := newGatherRig(t, store, true)
	for _, x := range []*gatherRig{plain, g} {
		x.read(t, 0, 0)
	}
	if e := g.entryOf(2); e == nil || !e.gather {
		t.Fatal("object 2 was not gathered")
	}
	reads := store.asyncReads
	for _, x := range []*gatherRig{plain, g} {
		x.r.PrefetchObj(x.r.dss[1], 2)
		checkTable(t, x.r)
	}
	if e := g.entryOf(2); e == nil || e.gather || g.r.dss[1].objs[2].state != objInFlight || store.asyncReads != reads {
		t.Fatalf("prefetch over a gather: entry %+v, %d more reads; want the gather adopted as the prefetch", e, store.asyncReads-reads)
	}
	for _, x := range []*gatherRig{plain, g} {
		x.read(t, 2, 1)
	}
	sa, sb := plain.r.Stats(), g.r.Stats()
	sb.GathersIssued, sb.GatherHits = 0, 0
	if plain.r.Clock().Now() != g.r.Clock().Now() || sa != sb || plain.r.dss[1].Stats() != g.r.dss[1].Stats() {
		t.Fatalf("prefetch decisions or charges moved: clock %d/%d\n%+v\n%+v\n%+v\n%+v", plain.r.Clock().Now(), g.r.Clock().Now(),
			sa, sb, plain.r.dss[1].Stats(), g.r.dss[1].Stats())
	}
}

// TestStoreOnceMissOnGatheredObject: a store-once miss on a gathered
// object takes the gathered bytes as its base: the object is read, not
// unread, and its other words hold their values.
func TestStoreOnceMissOnGatheredObject(t *testing.T) {
	g := newGatherRig(t, testutil.InlineAsync{ObjStore: NewMapStore()}, true)
	g.read(t, 0, 0)
	if e := g.entryOf(3); e == nil || !e.gather {
		t.Fatal("object 3 was not gathered")
	}
	p, err := g.r.GuardStore(g.b+3*gatherObj+8, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	g.r.WriteWord(p, 7)
	checkTable(t, g.r)
	obj := &g.r.dss[1].objs[3]
	if obj.log != nil || g.r.Stats().GatherHits != 1 {
		t.Fatalf("store-once miss on a gathered object: log %v, %d gather hits; want a read object, 1", obj.log, g.r.Stats().GatherHits)
	}
	if v, _ := g.r.ObjectWord(g.r.dss[1], 3, 0); v != 1003 {
		t.Fatalf("word 0 of the stored-to object reads %d, want 1003", v)
	}
}

// TestGatherNeedsAClosedBreaker: with the breaker open a walk issues
// nothing.
func TestGatherNeedsAClosedBreaker(t *testing.T) {
	g := newGatherRig(t, testutil.InlineAsync{ObjStore: NewMapStore()}, true)
	g.r.breaker.state.Store(int32(BreakerOpen))
	g.r.gatherAhead(g.memo.Gather)
	if n := g.r.Stats().GathersIssued; n != 0 {
		t.Fatalf("an open breaker let %d gathers out", n)
	}
}

// TestGatherPeekIssuesNoStoreOp: the walk reads only resident words.
// With the index array remote it issues nothing at all; resident, only
// the gathers' async reads, and no synchronous read.
func TestGatherPeekIssuesNoStoreOp(t *testing.T) {
	store := &countingStore{Store: testutil.InlineAsync{ObjStore: NewMapStore()}}
	g := newGatherRig(t, store, true)
	d := g.r.dss[0]
	for idx := range d.objs {
		pos := -1
		for i, c := range g.r.ring {
			if c.ds == d && c.idx == idx && c.epoch == d.objs[idx].epoch {
				pos = i
			}
		}
		if err := g.r.evictObject(d, idx, pos); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	before := *store
	g.r.gatherAhead(g.memo.Gather)
	if *store != before || g.r.Stats().GathersIssued != 0 {
		t.Fatalf("a walk over a remote index issued store ops: %+v, then %+v", before, *store)
	}
	for i := 0; i < 2; i++ {
		if _, err := g.r.Guard(g.a+uint64(i*gatherObj), false); err != nil {
			t.Fatal(err)
		}
	}
	before = *store
	g.r.gatherAhead(g.memo.Gather)
	n := g.r.Stats().GathersIssued
	if n == 0 || store.syncReads != before.syncReads || store.asyncReads-before.asyncReads != n || store.writes != before.writes {
		t.Fatalf("walk over a resident index: %d gathers, ops %+v then %+v; want only the gathers' reads", n, before, *store)
	}
}

// TestDroppedGatherKeepsItsBuffer: a gather whose read is still out
// gives way to a staged hop, and its buffer — which the store may still
// fill — is not parked for reuse.
func TestDroppedGatherKeepsItsBuffer(t *testing.T) {
	store := &heldReads{Store: NewMapStore()}
	g := newGatherRig(t, store, true)
	g.r.gatherAhead(g.memo.Gather)
	e := g.entryOf(1)
	if e == nil || !e.gather || len(store.done) == 0 {
		t.Fatal("object 1 was not gathered")
	}
	hop := g.r.newEntry(entryHop, g.r.dss[1], 1)
	hop.buf, hop.settled = make([]byte, gatherObj), true
	g.r.track(hop)
	checkTable(t, g.r)
	for _, b := range g.r.bufFree[gatherObj] {
		if &b[0] == &e.buf[0] {
			t.Fatal("a dropped gather's buffer was recycled before its read completed")
		}
	}
	for _, done := range store.done {
		done(nil)
	}
}

// heldReads never completes an async read until the test calls done.
type heldReads struct {
	Store
	done []func(error)
}

func (s *heldReads) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.done = append(s.done, done)
}

// countingStore counts the store ops that reach it.
type countingStore struct {
	Store
	syncReads, asyncReads, writes uint64
}

func (s *countingStore) ReadObj(ds, idx int, dst []byte) error {
	s.syncReads++
	return s.Store.ReadObj(ds, idx, dst)
}

func (s *countingStore) WriteObj(ds, idx int, src []byte) error {
	s.writes++
	return s.Store.WriteObj(ds, idx, src)
}

func (s *countingStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.asyncReads++
	s.Store.(AsyncStore).IssueRead(ds, idx, dst, done)
}

func (s *countingStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.writes++
	s.Store.(AsyncWriteStore).IssueWrite(ds, idx, src, done)
}
