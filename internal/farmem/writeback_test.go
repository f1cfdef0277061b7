package farmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// slowWriteStore is a fake AsyncWriteStore: IssueWrite returns
// immediately and the completion is delivered from another goroutine
// after `delay` (or once `block` closes) — the shape of the pipelined
// TCP client's write window, with a controllable RTT.
type slowWriteStore struct {
	*MapStore
	delay time.Duration
	block chan struct{} // when non-nil, completions wait for close

	mu      sync.Mutex
	issued  int
	reads   int
	failIdx int // idx whose async write fails (-1: never)
}

func newSlowWriteStore(delay time.Duration) *slowWriteStore {
	return &slowWriteStore{MapStore: NewMapStore(), delay: delay, failIdx: -1}
}

func (s *slowWriteStore) ReadObj(ds, idx int, dst []byte) error {
	s.mu.Lock()
	s.reads++
	s.mu.Unlock()
	return s.MapStore.ReadObj(ds, idx, dst)
}

func (s *slowWriteStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.mu.Lock()
	s.issued++
	fail := idx == s.failIdx
	s.mu.Unlock()
	go func() {
		if s.block != nil {
			<-s.block
		} else if s.delay > 0 {
			time.Sleep(s.delay)
		}
		if fail {
			done(errors.New("injected async write failure"))
			return
		}
		done(s.WriteObj(ds, idx, src))
	}()
}

func (s *slowWriteStore) issuedWrites() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issued
}

func (s *slowWriteStore) readCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads
}

// storeWord reads the first 8 bytes of an object directly from the far
// tier (bypassing the runtime cache).
func storeWord(t *testing.T, st Store, objSize, idx int) uint64 {
	t.Helper()
	buf := make([]byte, objSize)
	if err := st.ReadObj(0, idx, buf); err != nil {
		t.Fatalf("store read obj %d: %v", idx, err)
	}
	return binary.LittleEndian.Uint64(buf)
}

func TestAsyncWriteStoreDetected(t *testing.T) {
	if r := New(Config{Store: NewMapStore()}); r.awstore != nil {
		t.Fatal("MapStore must not be detected as an async write store")
	}
	if r := New(Config{Store: newSlowWriteStore(0)}); r.awstore == nil {
		t.Fatal("slowWriteStore should be detected as an async write store")
	}
}

// TestEvictionDoesNotBlockOnWriteRTT is the tentpole's acceptance test
// at unit scope: K dirty evictions against a store with a long write
// RTT must complete in far less than one RTT — the synchronous path
// paid the full round trip inside each eviction.
func TestEvictionDoesNotBlockOnWriteRTT(t *testing.T) {
	const (
		obj = 256
		k   = 8
		rtt = 50 * time.Millisecond
	)
	store := newSlowWriteStore(rtt)
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(2 * obj),
		Store: store, WriteBackBudget: 1 << 20,
	})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, int64((k+2)*obj))
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	for i := 0; i < k+2; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(1000+i))
	}
	elapsed := time.Since(start)
	if elapsed >= rtt {
		t.Fatalf("dirty-eviction walk took %v (>= one %v write RTT): eviction blocked on write-back", elapsed, rtt)
	}
	if got := r.Stats().StagedWriteBacks; got < k {
		t.Fatalf("StagedWriteBacks = %d, want >= %d", got, k)
	}

	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if n := r.StagedWriteBackEntries(); n != 0 {
		t.Fatalf("%d write-backs still staged after drain", n)
	}
	d := r.DSByID(0)
	for i := 0; i < k+2; i++ {
		if d.objs[i].state != objRemote {
			continue
		}
		if got := storeWord(t, store.MapStore, obj, i); got != uint64(1000+i) {
			t.Fatalf("far tier obj %d = %d, want %d", i, got, 1000+i)
		}
	}
}

// TestDerefServedFromStagingBuffer: while an object's write-back is in
// flight, a deref must observe the written bytes from the staging
// buffer — a remote READ would race the write and return the pre-write
// value (here: zeros, since the store never saw the object).
func TestDerefServedFromStagingBuffer(t *testing.T) {
	const obj = 128
	store := newSlowWriteStore(0)
	store.block = make(chan struct{})
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(2 * obj),
		Store: store, WriteBackBudget: 1 << 20,
	})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 3*obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(111+i))
	}
	d := r.DSByID(0)
	if d.objs[0].state != objRemote {
		t.Fatalf("obj 0 state = %d, want evicted (remote)", d.objs[0].state)
	}
	if r.StagedWriteBackEntries() == 0 {
		t.Fatal("no write-back staged for the evicted dirty object")
	}

	// Write-back still blocked: the store holds nothing for obj 0, so any
	// remote READ would return 0.
	p, err := r.Guard(addr, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadWord(p); v != 111 {
		t.Fatalf("deref during in-flight write-back read %d, want 111 (stale remote read?)", v)
	}
	if got := r.Stats().WriteBackStagingHits; got != 1 {
		t.Fatalf("WriteBackStagingHits = %d, want 1", got)
	}

	close(store.block)
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if got := storeWord(t, store.MapStore, obj, 0); got != 111 {
		t.Fatalf("far tier obj 0 = %d after drain, want 111", got)
	}
}

// TestWriteBackBudgetBackpressure: a staging budget of two objects must
// throttle a long dirty walk by stalling on the oldest staged write,
// never by unbounded staging: retired entries included, staging stays
// within twice the budget — and every payload still lands.
func TestWriteBackBudgetBackpressure(t *testing.T) {
	const (
		obj = 128
		n   = 34
	)
	store := newSlowWriteStore(time.Millisecond)
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(2 * obj),
		Store: store, WriteBackBudget: uint64(2 * obj),
	})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, int64(n*obj))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(2000+i))
		checkTable(t, r)
		if staged := r.wbBytes + r.wbRetired; staged > uint64(4*obj) {
			t.Fatalf("after obj %d: %d bytes staged, over twice the %d budget", i, staged, 2*obj)
		}
	}
	if r.StagedWriteBackBytes() > uint64(2*obj) {
		t.Fatalf("staged bytes %d exceed the %d budget", r.StagedWriteBackBytes(), 2*obj)
	}
	if r.Stats().WriteBackStalls == 0 {
		t.Fatal("a 2-object staging budget over a 32-eviction walk must stall at least once")
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	d := r.DSByID(0)
	for i := 0; i < n; i++ {
		if d.objs[i].state != objRemote {
			continue
		}
		if got := storeWord(t, store.MapStore, obj, i); got != uint64(2000+i) {
			t.Fatalf("far tier obj %d = %d, want %d", i, got, 2000+i)
		}
	}
}

// TestFailedAsyncWriteReissuedSynchronously: the transport never
// silently retries an unacknowledged write; the runtime reissues it
// here, where the full-object payload makes the replay idempotent.
func TestFailedAsyncWriteReissuedSynchronously(t *testing.T) {
	const obj = 128
	store := newSlowWriteStore(0)
	store.failIdx = 0
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(2 * obj),
		Store: store, WriteBackBudget: 1 << 20,
	})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 3*obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(300+i))
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().WriteBackReissues; got == 0 {
		t.Fatal("failed async write must be reissued synchronously")
	}
	if got := storeWord(t, store.MapStore, obj, 0); got != 300 {
		t.Fatalf("far tier obj 0 = %d after reissue, want 300", got)
	}
	if n := r.StagedWriteBackEntries(); n != 0 {
		t.Fatalf("%d write-backs still staged after drain", n)
	}
}

// flakyWriteStore fails writes with ErrDegraded while degraded and
// advances a recovery epoch on heal — the sharded store's contract.
type flakyWriteStore struct {
	*MapStore
	mu       sync.Mutex
	degraded bool
	epoch    uint64
}

func (s *flakyWriteStore) setDegraded(v bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.degraded && !v {
		s.epoch++
	}
	s.degraded = v
}

func (s *flakyWriteStore) RecoveryEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *flakyWriteStore) WriteObj(ds, idx int, src []byte) error {
	s.mu.Lock()
	bad := s.degraded
	s.mu.Unlock()
	if bad {
		return fmt.Errorf("flaky shard: %w", ErrDegraded)
	}
	return s.MapStore.WriteObj(ds, idx, src)
}

func (s *flakyWriteStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	done(s.WriteObj(ds, idx, src))
}

// parkStagedWrite drives a runtime over a degraded flakyWriteStore
// until one staged write-back is parked, returning the runtime, store,
// and the base address. Object 0 carries value 777; objects 1 and 2 are
// clean residents/evictees.
func parkStagedWrite(t *testing.T) (*Runtime, *flakyWriteStore, uint64) {
	t.Helper()
	const obj = 128
	store := &flakyWriteStore{MapStore: NewMapStore()}
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(obj),
		Store: store, WriteBackBudget: 1 << 20,
	})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 3*obj)
	if err != nil {
		t.Fatal(err)
	}
	// Materialize obj 1 clean (cold fault, no store traffic).
	if _, err := r.Guard(addr+obj, false); err != nil {
		t.Fatal(err)
	}
	store.setDegraded(true)
	// Dirty obj 0; its eviction (forced by touching obj 2) stages a
	// write-back whose async completion is ErrDegraded, and the drain's
	// synchronous reissue is refused too -> the entry parks.
	p, err := r.Guard(addr, true)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(p, 777)
	if _, err := r.Guard(addr+2*obj, false); err != nil {
		t.Fatal(err)
	}
	if n := r.StagedWriteBackEntries(); n != 1 {
		t.Fatalf("staged entries = %d, want 1", n)
	}
	if err := r.DrainWriteBacks(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("drain during shard outage: err = %v, want ErrDegraded", err)
	}
	if n := r.StagedWriteBackEntries(); n != 1 {
		t.Fatalf("parked entries = %d, want 1 (the refused write-back must survive)", n)
	}
	return r, store, addr
}

// TestParkedWriteBackDrainsOnRecoveryEpoch: a staged write refused by a
// degraded shard parks (the staging buffer is the only copy) and drains
// once the shard's recovery epoch advances.
func TestParkedWriteBackDrainsOnRecoveryEpoch(t *testing.T) {
	const obj = 128
	r, store, addr := parkStagedWrite(t)
	store.setDegraded(false)
	// Any successful store operation notices the epoch advance; reading
	// clean remote obj 1 is one.
	if _, err := r.Guard(addr+obj, false); err != nil {
		t.Fatal(err)
	}
	if n := r.StagedWriteBackEntries(); n != 0 {
		t.Fatalf("%d write-backs still parked after recovery epoch drain", n)
	}
	if got := r.Stats().DrainedWriteBacks; got == 0 {
		t.Fatal("recovery drain must count the parked write-back")
	}
	if got := storeWord(t, store.MapStore, obj, 0); got != 777 {
		t.Fatalf("far tier obj 0 = %d after recovery, want 777", got)
	}
}

// TestParkedWriteBackReclaimedByDeref: dereffing an object whose staged
// write is parked re-localizes it dirty from the staging buffer — no
// remote READ, no data loss — and releases the staging budget.
func TestParkedWriteBackReclaimedByDeref(t *testing.T) {
	const obj = 128
	r, store, addr := parkStagedWrite(t)
	p, err := r.Guard(addr, false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadWord(p); v != 777 {
		t.Fatalf("deref of parked object read %d, want 777", v)
	}
	d := r.DSByID(0)
	if !d.objs[0].dirty {
		t.Fatal("reclaimed object must re-localize dirty: the frame is now the only copy")
	}
	if n := r.StagedWriteBackEntries(); n != 0 {
		t.Fatalf("staged entries = %d after reclaim, want 0", n)
	}
	// After the shard heals, the ordinary dirty-drain paths persist it.
	store.setDegraded(false)
	if _, err := r.Guard(addr+obj, false); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := storeWord(t, store.MapStore, obj, 0); got != 777 {
		t.Fatalf("far tier obj 0 = %d, want 777", got)
	}
}

// TestPrefetchSkipsStagedWriteBack: speculatively re-fetching an object
// with an in-flight write-back would read the stale remote copy.
func TestPrefetchSkipsStagedWriteBack(t *testing.T) {
	const obj = 128
	store := newSlowWriteStore(0)
	store.block = make(chan struct{})
	defer close(store.block)
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(4 * obj),
		Store: store, WriteBackBudget: 1 << 20,
	})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 5*obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(i))
	}
	d := r.DSByID(0)
	if d.objs[0].state != objRemote || r.StagedWriteBackEntries() == 0 {
		t.Fatal("setup: obj 0 should be evicted with its write-back staged")
	}
	before := store.readCount()
	r.PrefetchObj(d, 0)
	if d.objs[0].state != objRemote {
		t.Fatalf("prefetch of staged object changed state to %d", d.objs[0].state)
	}
	if got := store.readCount(); got != before {
		t.Fatal("prefetch of a staged object must not touch the store")
	}
	if got := d.Stats().PrefetchIssued; got != 0 {
		t.Fatalf("PrefetchIssued = %d, want 0", got)
	}
}
