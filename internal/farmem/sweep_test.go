package farmem

import (
	"testing"
	"time"
)

// heldWriteStore is an AsyncWriteStore whose async writes complete only
// when the test says so, with the error it chooses; its synchronous
// writes fail while down. It counts synchronous writes per object and
// has no Ping, so the runtime's breaker re-arms half-open by elapsed
// time alone. Everything runs on the test goroutine: no locking.
type heldWriteStore struct {
	*MapStore
	down       bool
	held       map[int]func(error)
	syncWrites map[int]int
}

func (s *heldWriteStore) WriteObj(ds, idx int, src []byte) error {
	if s.down {
		return errInjected
	}
	s.syncWrites[idx]++
	return s.MapStore.WriteObj(ds, idx, src)
}

func (s *heldWriteStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.held[idx] = func(err error) {
		if err == nil {
			err = s.MapStore.WriteObj(ds, idx, src)
		}
		done(err)
	}
}

func (s *heldWriteStore) complete(t *testing.T, idx int, err error) {
	t.Helper()
	f, ok := s.held[idx]
	if !ok {
		t.Fatalf("no write of obj %d is held", idx)
	}
	delete(s.held, idx)
	f(err)
}

// TestWriteBackSweepReentrancy: a harvest whose synchronous reissue is
// the trial that closes a half-open breaker runs the recovery drain —
// drainRecovered, then drainParked — from inside its own walk of the
// order list. The inner drain must leave the list to the walk above it: the
// parked entries stay parked (none drained twice, none lost), the list
// holds every staged entry exactly once, and a later DrainWriteBacks
// lands every object.
func TestWriteBackSweepReentrancy(t *testing.T) {
	const (
		obj   = 128
		n     = 8
		probe = 50 * time.Millisecond
	)
	store := &heldWriteStore{MapStore: NewMapStore(), held: map[int]func(error){}, syncWrites: map[int]int{}}
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: 2 * obj,
		Store: store, WriteBackBudget: 1 << 20,
		BreakerThreshold: 1, BreakerProbe: probe,
	})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, n*obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(500+i))
		checkTable(t, r)
	}
	if got := r.StagedWriteBackEntries(); got != n-2 {
		t.Fatalf("staged %d write-backs, want %d (objs 0..%d)", got, n-2, n-3)
	}
	farFuture := func() { r.clock.Advance(1 << 40) } // past every entry's settle cycle

	// Park objs 0, 2 and 5: their async writes fail, the first failure
	// trips the breaker and the reissues are refused.
	store.down = true
	for _, idx := range []int{0, 2, 5} {
		store.complete(t, idx, errInjected)
	}
	farFuture()
	r.harvestWriteBacks()
	checkTable(t, r)
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("breaker %v, want open", r.BreakerState())
	}
	for _, idx := range []int{0, 2, 5} {
		if p := stagedWB(r, idx); p == nil || !p.parked {
			t.Fatalf("obj %d not parked", idx)
		}
	}
	// Reclaiming obj 5 by deref drops its entry outside any walk: the
	// order list now holds a hole as well.
	if _, err := r.Guard(addr+5*obj, false); err != nil {
		t.Fatal(err)
	}
	checkTable(t, r)

	// The tier heals. Obj 1's async write fails and its reissue is the
	// half-open trial; obj 3's lands; obj 4's is still on the wire.
	store.down = false
	time.Sleep(probe + 10*time.Millisecond)
	store.complete(t, 1, errInjected)
	store.complete(t, 3, nil)
	farFuture()
	r.harvestWriteBacks()
	checkTable(t, r)
	if r.BreakerState() != BreakerClosed || r.Stats().BreakerRecoveries != 1 {
		t.Fatalf("breaker %v after %d recoveries, want closed after 1", r.BreakerState(), r.Stats().BreakerRecoveries)
	}
	for _, idx := range []int{0, 2} {
		if p := stagedWB(r, idx); p == nil || !p.parked {
			t.Fatalf("parked obj %d was drained under the harvest that owns the list", idx)
		}
	}
	if stagedWB(r, 4) == nil || r.StagedWriteBackEntries() != 3 {
		t.Fatalf("staged entries %d, want objs 0, 2 (parked) and 4 (in flight)", r.StagedWriteBackEntries())
	}

	store.complete(t, 4, nil)
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	checkTable(t, r)
	if r.StagedWriteBackEntries() != 0 || r.StagedWriteBackBytes() != 0 {
		t.Fatalf("%d entries, %d bytes still staged after the drain", r.StagedWriteBackEntries(), r.StagedWriteBackBytes())
	}
	for _, idx := range []int{0, 2} {
		if got := store.syncWrites[idx]; got != 1 {
			t.Fatalf("parked obj %d written back %d times, want once", idx, got)
		}
	}
	for i := 0; i < n; i++ {
		if got := storeWord(t, store.MapStore, obj, i); got != uint64(500+i) {
			t.Fatalf("far tier obj %d = %d, want %d", i, got, 500+i)
		}
	}
}
