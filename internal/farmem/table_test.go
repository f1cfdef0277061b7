package farmem

import (
	"math/rand"
	"testing"
	"time"

	"cards/internal/testutil"
)

// checkTable fails unless the in-flight table is consistent: every
// listed entry is listed once, at its pos, and is its object's entry, so
// no object has two; a read's object is objInFlight and every
// objInFlight object has a read; a hop's object is objRemote (a
// write-back may outlive its object's re-localization from staging);
// every entry is on the order list; and the kind counts, each
// structure's in-flight reads, inflightBytes, the staged write-back
// bytes (budgeted and retired) and the chase staged bytes are the sums
// over the entries.
func checkTable(t testing.TB, r *Runtime) {
	t.Helper()
	var kinds [entryKinds]int
	var inflight, staged, budgeted, retired uint64
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
		listed[e] = true
		kinds[e.kind]++
		sz := uint64(e.d.Meta.ObjSize)
		switch {
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
			if obj.state == objInFlight && (obj.ent == nil || obj.ent.kind != entryRead) {
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
	if inflight != r.inflightBytes || staged != r.chaseStagedBytes || budgeted != r.wbBytes || retired != r.wbRetired {
		t.Fatalf("counters: in flight %d, chase staged %d, wb budgeted %d, wb retired %d; entries hold %d, %d, %d, %d",
			r.inflightBytes, r.chaseStagedBytes, r.wbBytes, r.wbRetired, inflight, staged, budgeted, retired)
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
// a dirty eviction.
func TestChaseTableHistories(t *testing.T) {
	const obj, n = 64, 48
	var served, stale, staged uint64
	for seed := int64(1); seed <= 24; seed++ {
		base := NewMapStore()
		store := testutil.NewChaseAsync(base, 20*time.Microsecond, seed)
		r := New(Config{PinnedBudget: 1 << 16, RemotableBudget: 6 * obj, WriteBackBudget: 2 * obj, Store: store, MaxInflight: 2})
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
