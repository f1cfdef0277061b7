package farmem

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// slowStore is a fake AsyncStore: IssueRead returns immediately and the
// completion is delivered from another goroutine after `delay` — the
// shape of the pipelined TCP client, with a controllable RTT.
type slowStore struct {
	*MapStore
	delay time.Duration

	mu      sync.Mutex
	issued  int
	failIdx int // idx whose async read fails (-1: never)
}

func newSlowStore(delay time.Duration) *slowStore {
	return &slowStore{MapStore: NewMapStore(), delay: delay, failIdx: -1}
}

func (s *slowStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.mu.Lock()
	s.issued++
	fail := idx == s.failIdx
	s.mu.Unlock()
	go func() {
		time.Sleep(s.delay)
		if fail {
			done(errors.New("injected async failure"))
			return
		}
		done(s.ReadObj(ds, idx, dst))
	}()
}

func (s *slowStore) issuedReads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issued
}

// remoteFill registers DS 0 with nObjs objects of objSize, writes
// distinct first words through guards, and evicts everything to the
// store by shrinking the working set walk. Returns the base address.
func remoteFill(t *testing.T, r *Runtime, objSize, nObjs int) uint64 {
	t.Helper()
	r.RegisterDS(0, DSMeta{ObjSize: objSize})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, int64(nObjs*objSize))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nObjs; i++ {
		p, err := r.Guard(addr+uint64(i*objSize), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(1000+i))
	}
	return addr
}

func TestAsyncStoreDetected(t *testing.T) {
	if r := New(Config{Store: NewMapStore()}); r.astore != nil {
		t.Fatal("MapStore must not be detected as async")
	}
	if r := New(Config{Store: newSlowStore(0)}); r.astore == nil {
		t.Fatal("slowStore should be detected as async")
	}
}

// TestPrefetchIssueDoesNotBlock is the acceptance test: K prefetches
// against a delayed store must issue in far less than K*RTT — the old
// synchronous path paid the full delay per prefetch.
func TestPrefetchIssueDoesNotBlock(t *testing.T) {
	const (
		obj = 512
		k   = 8
		rtt = 50 * time.Millisecond
	)
	store := newSlowStore(rtt)
	// Budget holds 4k objects; walking 16k writes evicts the early ones
	// to the store, leaving plenty remote to prefetch.
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(4 * k * obj),
		Store: store, MaxInflight: k,
	})
	addr := remoteFill(t, r, obj, 16*k)
	d := r.DSByID(0)

	var idxs []int
	for i := range d.objs {
		if d.objs[i].state == objRemote {
			idxs = append(idxs, i)
			if len(idxs) == k {
				break
			}
		}
	}
	if len(idxs) < k {
		t.Fatalf("only %d remote objects", len(idxs))
	}

	start := time.Now()
	for _, idx := range idxs {
		r.PrefetchObj(d, idx)
	}
	issueTime := time.Since(start)
	if got := store.issuedReads(); got != k {
		t.Fatalf("issued %d async reads, want %d", got, k)
	}
	// K blocking prefetches would take >= k*rtt = 400ms. Issuing must not
	// wait for even one RTT.
	if issueTime >= rtt {
		t.Fatalf("issuing %d prefetches took %v (>= one %v RTT): prefetch blocked", k, issueTime, rtt)
	}

	// Harvest through demand accesses: every object must carry its data.
	for j, idx := range idxs {
		p, err := r.Guard(addr+uint64(idx*obj), false)
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := r.ReadWord(p); v != uint64(1000+idx) {
			t.Fatalf("object %d (prefetch %d) = %d, want %d", idx, j, v, 1000+idx)
		}
	}
	if hits := d.Stats().PrefetchHits; hits != k {
		t.Fatalf("PrefetchHits = %d, want %d", hits, k)
	}
	// All prefetches harvested: nothing left in the table.
	for i := range d.objs {
		if d.objs[i].ent != nil {
			t.Fatalf("object %d still has a pending fetch", i)
		}
	}
}

// TestAsyncPrefetchOverlap: total wall time for issue-all-then-read-all
// must be about one RTT, not K RTTs — the overlap the tentpole exists
// to provide.
func TestAsyncPrefetchOverlap(t *testing.T) {
	const (
		obj = 256
		k   = 6
		rtt = 40 * time.Millisecond
	)
	store := newSlowStore(rtt)
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(4 * k * obj),
		Store: store, MaxInflight: k,
	})
	addr := remoteFill(t, r, obj, 16*k)
	d := r.DSByID(0)
	var idxs []int
	for i := range d.objs {
		if d.objs[i].state == objRemote {
			idxs = append(idxs, i)
			if len(idxs) == k {
				break
			}
		}
	}
	start := time.Now()
	for _, idx := range idxs {
		r.PrefetchObj(d, idx)
	}
	for _, idx := range idxs {
		if _, err := r.Guard(addr+uint64(idx*obj), false); err != nil {
			t.Fatal(err)
		}
	}
	total := time.Since(start)
	if total >= time.Duration(len(idxs))*rtt/2 {
		t.Fatalf("%d overlapped fetches took %v, want ~1 RTT (%v): no overlap", len(idxs), total, rtt)
	}
}

// TestAsyncFailureFallsBackToSyncRead: a failed async read must not
// surface if the synchronous retry succeeds.
func TestAsyncFailureFallsBackToSyncRead(t *testing.T) {
	const obj = 256
	store := newSlowStore(time.Millisecond)
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: 16 * obj,
		Store: store, MaxInflight: 8,
	})
	addr := remoteFill(t, r, obj, 64)
	d := r.DSByID(0)
	var idx = -1
	for i := range d.objs {
		if d.objs[i].state == objRemote {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no remote object")
	}
	store.failIdx = idx
	r.PrefetchObj(d, idx)
	p, err := r.Guard(addr+uint64(idx*obj), false)
	if err != nil {
		t.Fatalf("deref should fall back to sync read: %v", err)
	}
	if v, _ := r.ReadWord(p); v != uint64(1000+idx) {
		t.Fatalf("fallback read = %d, want %d", v, 1000+idx)
	}
}

// TestUnusedAsyncPrefetchSettles: CLOCK must be able to settle an
// unconsumed async prefetch (once its completion arrived) so speculative
// frames cannot wedge the cache.
func TestUnusedAsyncPrefetchSettles(t *testing.T) {
	const obj = 512
	store := newSlowStore(time.Millisecond)
	// Remotable budget of 4 objects: prefetching then touching new
	// objects forces eviction pressure over the in-flight frame.
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: 4 * obj,
		Store: store, MaxInflight: 8,
	})
	addr := remoteFill(t, r, obj, 8)
	d := r.DSByID(0)
	var idx = -1
	for i := range d.objs {
		if d.objs[i].state == objRemote {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no remote object")
	}
	r.PrefetchObj(d, idx)
	if d.objs[idx].state != objInFlight {
		t.Fatal("prefetch did not mark in-flight")
	}
	// Let the async completion arrive, then advance the virtual clock
	// past the read's settle cycle so the settle path sees a landed payload.
	time.Sleep(20 * time.Millisecond)
	r.Clock().Advance(r.Model().RemoteRTT * 100)

	// Touch other objects until the prefetched frame has been settled and
	// recycled. It must not wedge: all derefs succeed.
	for round := 0; round < 4; round++ {
		for i := 0; i < 8; i++ {
			if i == idx {
				continue
			}
			if _, err := r.Guard(addr+uint64(i*obj), false); err != nil {
				t.Fatalf("eviction pressure wedged on in-flight frame: %v", err)
			}
		}
	}
	if st := d.objs[idx].state; st == objInFlight {
		t.Fatal("unused async prefetch never settled")
	}
}

// TestMapStoreConcurrent exercises the MapStore mutex under -race:
// concurrent readers and writers on overlapping keys.
func TestMapStoreConcurrent(t *testing.T) {
	s := NewMapStore()
	const (
		goroutines = 8
		iters      = 200
	)
	var wg sync.WaitGroup
	wg.Add(2 * goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			buf := []byte{byte(g), 0, 0, 0}
			for i := 0; i < iters; i++ {
				if err := s.WriteObj(0, i%16, buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 4)
			for i := 0; i < iters; i++ {
				if err := s.ReadObj(0, i%16, buf); err != nil {
					t.Error(err)
					return
				}
				s.Objects()
			}
		}()
	}
	wg.Wait()
	if n := s.Objects(); n != 16 {
		t.Fatalf("Objects = %d, want 16", n)
	}
}
