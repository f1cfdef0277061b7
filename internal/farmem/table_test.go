package farmem

import (
	"math/rand"
	"testing"
	"time"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// checkTable fails unless the in-flight table is consistent: every
// listed entry is listed once, at its pos, and is its object's entry, so
// no object has two; a read is either a prefetch, whose object is
// objInFlight, or a frameless gather on an objRemote object, and every
// objInFlight object has a prefetch; only a read holds a wire-form
// block; a hop's object is objRemote (a
// write-back may outlive its object's re-localization from staging);
// every entry is on the order list; and the kind counts, each
// structure's in-flight prefetches, inflightBytes, the staged write-back
// bytes (budgeted and retired), the chase staged bytes and the gathered
// bytes are the sums over the entries.
func checkTable(t testing.TB, r *Runtime) {
	t.Helper()
	var kinds [entryKinds]int
	var inflight, staged, budgeted, retired, gathered uint64
	reads := map[*DS]int{}
	listed := map[*entry]bool{}
	for pos, e := range r.order {
		if e == nil {
			continue
		}
		obj := &e.d.objs[e.idx]
		switch {
		case listed[e]:
			t.Fatalf("entry of ds%d[%d] is listed twice", e.d.ID, e.idx)
		case e.pos != pos:
			t.Fatalf("entry of ds%d[%d] is listed at %d, records %d", e.d.ID, e.idx, pos, e.pos)
		case obj.ent != e:
			t.Fatalf("listed entry (kind %d) of ds%d[%d] is not its object's", e.kind, e.d.ID, e.idx)
		}
		if e.kind != entryRead && e.blk != (rdma.Block{}) {
			t.Fatalf("entry (kind %d) of ds%d[%d] holds a wire-form block", e.kind, e.d.ID, e.idx)
		}
		listed[e] = true
		kinds[e.kind]++
		sz := uint64(e.d.Meta.ObjSize)
		switch {
		case e.gather:
			if e.kind != entryRead || obj.state != objRemote {
				t.Fatalf("gather (kind %d) of ds%d[%d] on an object in state %d", e.kind, e.d.ID, e.idx, obj.state)
			}
			gathered += sz
		case e.kind == entryRead:
			if obj.state != objInFlight {
				t.Fatalf("read of ds%d[%d] on an object in state %d", e.d.ID, e.idx, obj.state)
			}
			reads[e.d]++
			inflight += sz
		case e.kind == entryHop:
			if obj.state != objRemote {
				t.Fatalf("hop of ds%d[%d] on an object in state %d", e.d.ID, e.idx, obj.state)
			}
			if e.program() {
				inflight += e.bytes
			} else {
				staged += sz
			}
		case e.retired:
			retired += sz
		default:
			budgeted += sz
		}
	}
	for _, d := range r.dss {
		for idx := range d.objs {
			obj := &d.objs[idx]
			if obj.ent != nil && !listed[obj.ent] {
				t.Fatalf("entry (kind %d) of ds%d[%d] is not on the order list", obj.ent.kind, d.ID, idx)
			}
			if obj.state == objInFlight && (obj.ent == nil || obj.ent.kind != entryRead || obj.ent.gather) {
				t.Fatalf("in-flight ds%d[%d] has no read entry", d.ID, idx)
			}
		}
		if d.inflight != reads[d] {
			t.Fatalf("ds%d counts %d reads in flight, the table holds %d", d.ID, d.inflight, reads[d])
		}
	}
	if kinds != r.kinds {
		t.Fatalf("entries by kind %v, counted %v", kinds, r.kinds)
	}
	if inflight != r.inflightBytes || staged != r.chaseStagedBytes || budgeted != r.wbBytes || retired != r.wbRetired || gathered != r.gatherBytes {
		t.Fatalf("counters: in flight %d, chase staged %d, wb budgeted %d, wb retired %d, gathered %d; entries hold %d, %d, %d, %d, %d",
			r.inflightBytes, r.chaseStagedBytes, r.wbBytes, r.wbRetired, r.gatherBytes, inflight, staged, budgeted, retired, gathered)
	}
}

// stagedWB returns the write-back entry of object idx of structure 0,
// or nil.
func stagedWB(r *Runtime, idx int) *entry {
	if e := r.dss[0].objs[idx].ent; e != nil && e.kind == entryWB {
		return e
	}
	return nil
}

// chaseAhead is the chase prefetcher without its per-hop fallback.
type chaseAhead struct{}

func (chaseAhead) Name() string { return "chase" }

func (chaseAhead) OnAccess(r *Runtime, d *DS, idx int, _ bool) { r.ChasePrefetch(d, idx, 8) }

// TestChaseTableHistories runs seeded histories of traversals under a
// chase prefetcher, random reads and writes, prefetches and forced
// evictions over a linked list
// of 48 one-element objects in room for six frames, over an in-process
// chase store whose completions arrive late, checking the table after
// every step and every value against a model. Across the histories some
// hop must be served from staging and some program must go stale under
// a dirty eviction. The last eight runs repeat seeds 1-8 over a store
// leaving its reads in wire form.
func TestChaseTableHistories(t *testing.T) {
	const obj, n = 64, 48
	var served, stale, staged uint64
	for run := int64(1); run <= 32; run++ {
		seed, wire := run, run > 24
		if wire {
			seed -= 24
		}
		base := NewMapStore()
		store := testutil.NewChaseAsync(base, 20*time.Microsecond, seed)
		var s Store = store
		if wire {
			s = wireChase{store}
		}
		r := New(Config{PinnedBudget: 1 << 16, RemotableBudget: 6 * obj, WriteBackBudget: 2 * obj, Store: s, MaxInflight: 2})
		r.RegisterDS(0, DSMeta{ObjSize: obj, ElemSize: obj, Recursive: true, PtrOffsets: []int{0}})
		r.SetPlacement(0, PlaceRemotable)
		addr, err := r.DSAlloc(0, n*obj)
		if err != nil {
			t.Fatal(err)
		}
		d := r.DSByID(0)
		// Word 0 of object i points at object i+1; word 1 is the payload.
		model := make([]uint64, n)
		for i := 0; i < n; i++ {
			p, err := r.Guard(addr+uint64(i*obj), true)
			if err != nil {
				t.Fatal(err)
			}
			if i+1 < n {
				r.WriteWord(p, addr+uint64((i+1)*obj))
			}
			model[i] = uint64(i)
			r.WriteWord(p+8, model[i])
			checkTable(t, r)
		}
		r.SetPrefetcher(0, chaseAhead{})
		rng := rand.New(rand.NewSource(seed))
		read := func(step, i int) {
			g, err := r.Guard(addr+uint64(i*obj)+8, false)
			if err != nil {
				t.Fatalf("seed %d, step %d: %v", seed, step, err)
			}
			if v, _ := r.ReadWord(g); v != model[i] {
				t.Fatalf("seed %d, step %d: object %d reads %d, model %d", seed, step, i, v, model[i])
			}
			checkTable(t, r)
		}
		for step := 0; step < 300; step++ {
			i := rng.Intn(n)
			switch op := rng.Intn(10); {
			case op < 5: // a traversal: the chase prefetcher runs ahead
				for j := i; j < min(n, i+2+rng.Intn(12)); j++ {
					read(step, j)
				}
			case op < 7:
				g, err := r.Guard(addr+uint64(i*obj)+8, true)
				if err != nil {
					t.Fatalf("seed %d, step %d: %v", seed, step, err)
				}
				model[i] = rng.Uint64()
				r.WriteWord(g, model[i])
			case op < 8:
				r.PrefetchObj(d, i)
			case op < 9:
				if err := r.evictOne(); err != nil {
					t.Fatalf("seed %d, step %d: %v", seed, step, err)
				}
			default:
				read(step, i)
			}
			checkTable(t, r)
		}
		for i := 0; i < n; i++ {
			read(-1, i)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		store.Wait()
		st := r.Stats()
		served += st.ChaseStagingHits
		stale += st.ChaseStale
		staged += st.ChaseHopsStaged
		if st.ChaseStagingHits > st.ChaseHopsStaged {
			t.Fatalf("seed %d: %d chase staging hits from %d staged hops", seed, st.ChaseStagingHits, st.ChaseHopsStaged)
		}
	}
	if served == 0 || stale == 0 {
		t.Fatalf("%d hops staged, %d served, %d stale programs; want some served and some stale", staged, served, stale)
	}
	t.Logf("%d hops staged, %d served, %d stale programs", staged, served, stale)
}

// wireChase is ChaseAsync leaving its reads in wire form
// (testutil.WireLate).
type wireChase struct{ *testutil.ChaseAsync }

func (s wireChase) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	testutil.WireLate{LateAsync: s.LateAsync}.IssueReadWire(ds, idx, dst, blk, done)
}

// heldChase is a far tier whose writes are held until Release
// (testutil.HeldAsync) and whose chases walk the store when issued
// (testutil.ChaseAsync), so a chase issued while a write is held walks
// the old bytes.
type heldChase struct {
	*testutil.HeldAsync
	walker *testutil.ChaseAsync
}

func (s heldChase) ChaseCapable() bool { return true }

func (s heldChase) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) { return s.walker.Chase(req) }

func (s heldChase) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	s.walker.IssueChase(req, done)
}

// TestChaseAfterWriteBackLandsGoesStale: a chase program issued while
// object X's write-back is out walks X's old bytes; when that write-back
// is acked and dropped before the program settles, the program goes
// stale rather than staging the old X.
func TestChaseAfterWriteBackLandsGoesStale(t *testing.T) {
	const obj = 64
	base := NewMapStore()
	store := heldChase{HeldAsync: &testutil.HeldAsync{ObjStore: base}, walker: testutil.NewChaseAsync(base, 0, 1)}
	r := New(Config{PinnedBudget: 1 << 16, RemotableBudget: 8 * obj, Store: store})
	r.RegisterDS(0, DSMeta{ObjSize: obj, ElemSize: obj, Recursive: true, PtrOffsets: []int{0}})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 4*obj)
	if err != nil {
		t.Fatal(err)
	}
	d := r.DSByID(0)
	at := func(i int) uint64 { return addr + uint64(i*obj) }
	write := func(i int, v uint64) {
		p, err := r.Guard(at(i)+8, true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, v)
	}
	evict := func(i int) {
		for pos, c := range r.ring {
			if c.idx == i && c.epoch == d.objs[i].epoch {
				if err := r.evictObject(d, i, pos); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
		t.Fatalf("object %d is not resident", i)
	}
	// Objects 0 → 1 → 2 → 3; 1 (W) and 2 (X) durable and remote.
	for i := 0; i < 4; i++ {
		p, err := r.Guard(at(i), true)
		if err != nil {
			t.Fatal(err)
		}
		if i < 3 {
			r.WriteWord(p, at(i+1))
		}
		write(i, 100+uint64(i))
	}
	evict(1)
	evict(2)
	store.Release(-1, nil)
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	// 1. X rewritten and evicted dirty: its write is held.
	write(2, 999)
	evict(2)
	// 2. A chase from W walks X's old bytes at issue.
	if !r.ChasePrefetch(d, 0, 4) || store.walker.Chases() != 1 {
		t.Fatal("no chase was issued from object 0")
	}
	// 3. X's write lands and its entry is dropped; 4. the chase
	// completes and W's miss settles it.
	store.Release(2, nil)
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	store.walker.Wait()
	for i, want := range []uint64{101, 999} {
		p, err := r.Guard(at(1+i)+8, false)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := r.ReadWord(p); v != want {
			t.Fatalf("object %d reads %d after its write landed, want %d", 1+i, v, want)
		}
		checkTable(t, r)
	}
	if st := r.Stats(); st.ChaseStale != 1 {
		t.Fatalf("%d stale chases, want 1", st.ChaseStale)
	}
}
