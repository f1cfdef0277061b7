package farmem

import (
	"strings"
	"testing"
)

// failingAsyncStore is an AsyncStore whose asynchronous reads of failIdx
// always fail and whose synchronous reads of failIdx fail while syncFail
// is set. Writes always succeed, so eviction write-backs keep working
// while the read paths are under fault. It counts the synchronous reads
// of failIdx and keeps the buffer the last one filled. The runtime and
// the (immediate) completion callback run on one goroutine, so no
// locking is needed.
type failingAsyncStore struct {
	inner     *MapStore
	failIdx   int
	syncFail  bool
	syncReads int
	lastDst   []byte
}

func (s *failingAsyncStore) ReadObj(ds, idx int, dst []byte) error {
	if idx == s.failIdx {
		s.syncReads++
		s.lastDst = dst
		if s.syncFail {
			return errInjected
		}
	}
	return s.inner.ReadObj(ds, idx, dst)
}

func (s *failingAsyncStore) WriteObj(ds, idx int, src []byte) error {
	return s.inner.WriteObj(ds, idx, src)
}

func (s *failingAsyncStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	if idx == s.failIdx {
		done(errInjected)
		return
	}
	done(s.inner.ReadObj(ds, idx, dst))
}

func asyncFaultRuntime(t *testing.T, store Store) (*Runtime, uint64) {
	t.Helper()
	r := New(Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: 2 * 4096,
		Store:           store,
	})
	if _, err := r.RegisterDS(0, DSMeta{Name: "d", ObjSize: 4096}); err != nil {
		t.Fatal(err)
	}
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	return r, addr
}

func TestHarvestRetriesFailedAsyncReadSynchronously(t *testing.T) {
	s := &failingAsyncStore{inner: NewMapStore(), failIdx: 0}
	r, addr := asyncFaultRuntime(t, s)
	writeWorkingSet(t, r, addr, 6) // objs 0..3 evicted to the store
	d := r.DSByID(0)

	r.PrefetchObj(d, 0) // async read fails immediately into the staging buffer
	if d.objs[0].state != objInFlight {
		t.Fatalf("obj 0 state = %v, want in-flight", d.objs[0].state)
	}
	// The demand deref harvests the failed completion and must read the
	// object synchronously, transparently.
	p, err := r.Guard(addr, false)
	if err != nil {
		t.Fatalf("deref with failed async read: %v", err)
	}
	if v, _ := r.ReadWord(p); v != 1000 {
		t.Fatalf("value = %d, want 1000", v)
	}
}

func TestHarvestFailurePropagatesAndRevertsObject(t *testing.T) {
	s := &failingAsyncStore{inner: NewMapStore(), failIdx: 0}
	r, addr := asyncFaultRuntime(t, s)
	writeWorkingSet(t, r, addr, 6)
	d := r.DSByID(0)

	r.PrefetchObj(d, 0)
	s.syncFail = true // the synchronous fallback fails too
	used := r.RemotableUsed()
	_, err := r.Guard(addr, false)
	if err == nil || !strings.Contains(err.Error(), "remote read") {
		t.Fatalf("err = %v, want the remote read failure", err)
	}
	if d.objs[0].state != objRemote {
		t.Fatalf("obj 0 state = %v, want reverted to remote", d.objs[0].state)
	}
	if r.RemotableUsed() != used-4096 {
		t.Fatalf("failed harvest leaked its frame: used %d -> %d", used, r.RemotableUsed())
	}

	// Heal the store: the object must localize correctly afterwards.
	s.syncFail = false
	s.failIdx = -1
	p, err := r.Guard(addr, false)
	if err != nil {
		t.Fatalf("deref after heal: %v", err)
	}
	if v, _ := r.ReadWord(p); v != 1000 {
		t.Fatalf("value after heal = %d, want 1000", v)
	}
}

func TestClockSettleRevertsFailedPrefetch(t *testing.T) {
	// A failed async prefetch that no access consumes is settled by the
	// CLOCK pass: the settle harvest fails, the object reverts to remote,
	// and eviction continues without surfacing an error to the caller.
	s := &failingAsyncStore{inner: NewMapStore(), failIdx: 0, syncFail: true}
	r, addr := asyncFaultRuntime(t, s)
	writeWorkingSet(t, r, addr, 6)
	d := r.DSByID(0)

	r.PrefetchObj(d, 0)
	// Advance virtual time past the prefetch's arrival, then force
	// evictions: obj 1's fetch advances the clock a full RTT, and the
	// later derefs need frames the wedged prefetch would otherwise hold.
	for i := 1; i < 4; i++ {
		if _, err := r.Guard(addr+uint64(i*4096), false); err != nil {
			t.Fatalf("deref obj %d during settle pressure: %v", i, err)
		}
	}
	if d.objs[0].state != objRemote {
		t.Fatalf("obj 0 state = %v, want settled back to remote", d.objs[0].state)
	}
	if d.inflight != 0 {
		t.Fatalf("inflight = %d, want 0 after settle", d.inflight)
	}

	s.syncFail = false
	s.failIdx = -1
	p, err := r.Guard(addr, false)
	if err != nil {
		t.Fatalf("deref after heal: %v", err)
	}
	if v, _ := r.ReadWord(p); v != 1000 {
		t.Fatalf("value after heal = %d, want 1000", v)
	}
}

// TestClockHandDropsFailedPrefetchUnread: a prefetch whose read failed
// and that no access consumes is a read nobody asked for. The CLOCK hand
// reverts it to remote without a store call, and it counts as no hit.
func TestClockHandDropsFailedPrefetchUnread(t *testing.T) {
	s := &failingAsyncStore{inner: NewMapStore(), failIdx: 0}
	r, addr := asyncFaultRuntime(t, s)
	writeWorkingSet(t, r, addr, 6)
	d := r.DSByID(0)

	r.PrefetchObj(d, 0)
	for i := 1; i < 4; i++ { // as TestClockSettleRevertsFailedPrefetch
		if _, err := r.Guard(addr+uint64(i*4096), false); err != nil {
			t.Fatalf("deref obj %d: %v", i, err)
		}
	}
	if d.objs[0].state != objRemote {
		t.Fatalf("obj 0 state = %v, want dropped to remote", d.objs[0].state)
	}
	if s.syncReads != 0 {
		t.Fatalf("the CLOCK hand read the unused failed prefetch %d times, want 0", s.syncReads)
	}
	if d.stats.PrefetchHits != 0 {
		t.Fatalf("PrefetchHits = %d, want 0", d.stats.PrefetchHits)
	}
}

// TestDerefOfFailedPrefetchIsAMiss: a deref that finds its prefetch's
// read failed is the miss it is — one synchronous fetch, counted and
// charged as a miss — not a prefetch hit.
func TestDerefOfFailedPrefetchIsAMiss(t *testing.T) {
	s := &failingAsyncStore{inner: NewMapStore(), failIdx: 0}
	r, addr := asyncFaultRuntime(t, s)
	writeWorkingSet(t, r, addr, 6)
	d := r.DSByID(0)

	r.PrefetchObj(d, 0)
	ds, fetches, charged := d.stats, r.stats.RemoteFetches, r.link.Fetches
	p, err := r.Guard(addr, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadWord(p); v != 1000 {
		t.Fatalf("value = %d, want 1000", v)
	}
	got := [...]uint64{d.stats.Misses - ds.Misses, r.stats.RemoteFetches - fetches, r.link.Fetches - charged,
		d.stats.PrefetchHits - ds.PrefetchHits, d.stats.Hits - ds.Hits}
	if got != [...]uint64{1, 1, 1, 0, 0} {
		t.Fatalf("misses, remote fetches, FetchSync charges, prefetch hits, hits = %v, want [1 1 1 0 0]", got)
	}
}

// TestFailedPrefetchReadsIntoItsOwnFrame: the miss a failed prefetch
// becomes reads straight into the frame the prefetch holds, taking no
// other frame — a second allocation could find nothing evictable on a
// small budget.
func TestFailedPrefetchReadsIntoItsOwnFrame(t *testing.T) {
	s := &failingAsyncStore{inner: NewMapStore(), failIdx: 0}
	r, addr := asyncFaultRuntime(t, s)
	writeWorkingSet(t, r, addr, 6)
	d := r.DSByID(0)

	r.PrefetchObj(d, 0)
	frame, used := d.objs[0].frame, r.RemotableUsed()
	if _, err := r.Guard(addr, false); err != nil {
		t.Fatal(err)
	}
	if d.objs[0].frame != frame || r.RemotableUsed() != used {
		t.Fatalf("frame %d -> %d, remotable used %d -> %d: want the prefetch's frame kept", frame, d.objs[0].frame, used, r.RemotableUsed())
	}
	if s.syncReads != 1 || &s.lastDst[0] != &r.arena.Bytes(frame, 4096)[0] {
		t.Fatalf("%d sync reads of obj 0, the last into %p; want one, into the frame at %p", s.syncReads, &s.lastDst[0], &r.arena.Bytes(frame, 4096)[0])
	}
}

// deadObjStore is a plain Store, with no async surface, whose reads of
// failIdx fail; it counts them.
type deadObjStore struct {
	*MapStore
	failIdx, reads int
}

func (s *deadObjStore) ReadObj(ds, idx int, dst []byte) error {
	if idx == s.failIdx {
		s.reads++
		return errInjected
	}
	return s.MapStore.ReadObj(ds, idx, dst)
}

// TestPlainStoreReadAheadIsOneAttempt: over a plain Store a read-ahead
// reads in the issuing call, under the async path's rule: one attempt,
// a failed one dropped — not reissued under RetryMax, not charged a
// retry, not held against the breaker — and the object left remote.
func TestPlainStoreReadAheadIsOneAttempt(t *testing.T) {
	s := &deadObjStore{MapStore: NewMapStore()}
	r := New(Config{PinnedBudget: 1 << 20, RemotableBudget: 2 * 4096, Store: s, RetryMax: 3, BreakerThreshold: 1})
	t.Cleanup(func() { r.Close() })
	r.RegisterDS(0, DSMeta{Name: "d", ObjSize: 4096})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	writeWorkingSet(t, r, addr, 6)
	d := r.DSByID(0)
	retries := r.link.Retries
	r.PrefetchObj(d, 0)
	if s.reads != 1 || r.stats.StoreRetries != 0 || r.link.Retries != retries {
		t.Fatalf("%d reads, %d store retries, %d link retries: want 1, 0, 0", s.reads, r.stats.StoreRetries, r.link.Retries-retries)
	}
	if r.stats.BreakerTrips != 0 || d.objs[0].state != objRemote || d.inflight != 0 {
		t.Fatalf("%d breaker trips, obj 0 state %d, %d in flight: want 0, remote, 0", r.stats.BreakerTrips, d.objs[0].state, d.inflight)
	}
}
