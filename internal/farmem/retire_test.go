package farmem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/testutil"
)

// Retired write-backs: a budget stall settles the oldest staged write in
// virtual time, and an entry whose ack has not arrived retires instead of
// blocking on the wire (waitOldestWB). The runtimes below cache one
// object and budget two staged writes, so a walk of objects 0, 1, 2, ...
// evicts each object dirty on the next guard, and from the third
// eviction on every eviction stalls on the budget.

const retObj = 128

// writeCounter counts the writes that reach the far tier, per object.
type writeCounter struct {
	*MapStore
	mu     sync.Mutex
	writes map[int]int
}

func (s *writeCounter) WriteObj(ds, idx int, src []byte) error {
	s.mu.Lock()
	s.writes[idx]++
	s.mu.Unlock()
	return s.MapStore.WriteObj(ds, idx, src)
}

func (s *writeCounter) count(idx int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes[idx]
}

type retireRig struct {
	r     *Runtime
	store *testutil.HeldAsync
	far   *writeCounter
	addr  uint64
}

func newRetireRig(t *testing.T) *retireRig {
	t.Helper()
	far := &writeCounter{MapStore: NewMapStore(), writes: map[int]int{}}
	store := &testutil.HeldAsync{ObjStore: far}
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: retObj,
		Store: store, WriteBackBudget: 2 * retObj,
	})
	r.RegisterDS(0, DSMeta{ObjSize: retObj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 16*retObj)
	if err != nil {
		t.Fatal(err)
	}
	return &retireRig{r: r, store: store, far: far, addr: addr}
}

// set derefs object i for write and stores v in its first word.
func (g *retireRig) set(i int, v uint64) error {
	p, err := g.r.Guard(g.addr+uint64(i*retObj), true)
	if err != nil {
		return err
	}
	g.r.WriteWord(p, v)
	return nil
}

// walk sets objects lo..hi-1 to 100+i.
func (g *retireRig) walk(lo, hi int) error {
	for i := lo; i < hi; i++ {
		if err := g.set(i, uint64(100+i)); err != nil {
			return err
		}
	}
	return nil
}

// unblocked fails the test unless f returns within a second: it must
// not wait on an ack that nobody releases.
func unblocked(t *testing.T, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked on an unreleased write-back ack")
	}
}

// releaseLater releases object idx's held writes after a pause and
// reports whether it has.
func releaseLater(store *testutil.HeldAsync, idx int) *atomic.Bool {
	var released atomic.Bool
	go func() {
		time.Sleep(20 * time.Millisecond)
		released.Store(true)
		store.Release(idx, nil)
	}()
	return &released
}

// checkRetired fails unless the budget counts want budgeted bytes and
// the retired counter want retired ones.
func checkRetired(t *testing.T, r *Runtime, budgeted, retired uint64) {
	t.Helper()
	checkTable(t, r)
	if r.StagedWriteBackBytes() != budgeted || r.wbRetired != retired {
		t.Fatalf("staged %d budgeted + %d retired bytes, want %d + %d", r.StagedWriteBackBytes(), r.wbRetired, budgeted, retired)
	}
}

// TestRetiredWalkNeedsNoAck: with no ack released, a dirty walk past the
// budget goes on until the retired bytes would exceed one more budget —
// charging a stall per budget wait as before — and only then blocks, on
// the oldest budgeted write's ack.
func TestRetiredWalkNeedsNoAck(t *testing.T) {
	g := newRetireRig(t)
	unblocked(t, func() error { return g.walk(0, 5) })
	if held := g.store.Held(); held != 4 {
		t.Fatalf("%d writes on the wire, want objs 0..3", held)
	}
	checkRetired(t, g.r, 2*retObj, 2*retObj)
	// Each retirement is the budget stall a blocking wait was, charged
	// to the virtual clock alike.
	if got := g.r.Stats().WriteBackStalls; got != 2 {
		t.Fatalf("WriteBackStalls = %d, want one per retirement (2)", got)
	}
	for _, idx := range []int{0, 1} {
		if p := stagedWB(g.r, idx); p == nil || !p.retired || g.r.clock.Now() < p.at {
			t.Fatalf("obj %d is not retired with its settle cycle charged", idx)
		}
	}

	released := releaseLater(g.store, 2)
	if err := g.set(5, 105); err != nil {
		t.Fatal(err)
	}
	if !released.Load() {
		t.Fatal("an eviction past twice the budget did not wait for an ack")
	}
	checkRetired(t, g.r, 2*retObj, 2*retObj)
	if got := g.r.Stats().WriteBackStalls; got != 3 {
		t.Fatalf("WriteBackStalls = %d, want 3", got)
	}
}

// TestDerefOfRetiredObjectReadsStaging: a retired entry still serves
// read-your-writes while the far tier holds nothing of it.
func TestDerefOfRetiredObjectReadsStaging(t *testing.T) {
	g := newRetireRig(t)
	var v uint64
	unblocked(t, func() error {
		if err := g.walk(0, 4); err != nil {
			return err
		}
		p, err := g.r.Guard(g.addr, false)
		if err == nil {
			v, err = g.r.ReadWord(p)
		}
		return err
	})
	if p := stagedWB(g.r, 0); p == nil || !p.retired {
		t.Fatal("obj 0's write-back is not retired")
	}
	if v != 100 || g.r.Stats().WriteBackStagingHits != 1 {
		t.Fatalf("deref of retired obj 0 read %d with %d staging hits, want 100 from staging", v, g.r.Stats().WriteBackStagingHits)
	}
	if got := storeWord(t, g.far.MapStore, retObj, 0); got != 0 {
		t.Fatalf("far tier obj 0 = %d before any ack, want 0", got)
	}
	g.store.Release(-1, nil)
	if err := g.r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if got := storeWord(t, g.far.MapStore, retObj, 0); got != 100 {
		t.Fatalf("far tier obj 0 = %d after the drain, want 100", got)
	}
}

// TestRetiredWriteFailureReissuedOnce: a retired write whose ack fails
// is reissued synchronously when harvested and lands exactly once.
func TestRetiredWriteFailureReissuedOnce(t *testing.T) {
	g := newRetireRig(t)
	unblocked(t, func() error { return g.walk(0, 4) })
	if p := stagedWB(g.r, 0); p == nil || !p.retired {
		t.Fatal("obj 0's write-back is not retired")
	}
	g.store.Release(0, errInjected)
	unblocked(t, func() error { return g.walk(4, 5) }) // its eviction harvests obj 0
	if stagedWB(g.r, 0) != nil || g.r.Stats().WriteBackReissues != 1 {
		t.Fatalf("obj 0 still staged after %d reissues, want released after 1", g.r.Stats().WriteBackReissues)
	}
	checkTable(t, g.r)
	g.store.Release(-1, nil)
	if err := g.r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if n := g.far.count(0); n != 1 {
		t.Fatalf("obj 0 landed %d times, want once", n)
	}
	if got := storeWord(t, g.far.MapStore, retObj, 0); got != 100 {
		t.Fatalf("far tier obj 0 = %d, want 100", got)
	}
}

// TestReEvictingRetiredObjectWaitsForAck: per-object ordering still
// holds for a retired entry — re-evicting its object waits for the ack
// before the newer write goes out — but charges no stall: the model
// settled the entry when it retired.
func TestReEvictingRetiredObjectWaitsForAck(t *testing.T) {
	g := newRetireRig(t)
	unblocked(t, func() error {
		if err := g.walk(0, 4); err != nil {
			return err
		}
		return g.set(0, 200) // served from staging; its eviction retires obj 1
	})
	if p := stagedWB(g.r, 0); p == nil || !p.retired {
		t.Fatal("obj 0's write-back is not retired")
	}
	// Every other write is in and settled by the clock, so the budget
	// has room for obj 0's next write-back.
	for _, idx := range []int{1, 2, 3} {
		g.store.Release(idx, nil)
	}
	g.r.clock.Advance(1 << 40)
	before := g.r.Stats().WriteBackStalls

	released := releaseLater(g.store, 0)
	if err := g.set(4, 104); err != nil {
		t.Fatal(err)
	}
	if !released.Load() {
		t.Fatal("re-evicting a retired object did not wait for its ack")
	}
	if got := g.r.Stats().WriteBackStalls; got != before {
		t.Fatalf("re-evicting a retired object stalled %d times, want 0", got-before)
	}
	checkRetired(t, g.r, retObj, 0)
	g.store.Release(-1, nil)
	if err := g.r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if got := storeWord(t, g.far.MapStore, retObj, 0); got != 200 || g.far.count(0) != 2 {
		t.Fatalf("far tier obj 0 = %d after %d writes, want 200 after 2", got, g.far.count(0))
	}
}

// TestDrainLandsRetiredWriteBacks: DrainWriteBacks waits out retired
// and budgeted entries alike and lands every object.
func TestDrainLandsRetiredWriteBacks(t *testing.T) {
	g := newRetireRig(t)
	unblocked(t, func() error { return g.walk(0, 5) })
	released := releaseLater(g.store, -1)
	if err := g.r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if !released.Load() {
		t.Fatal("the drain returned before the acks")
	}
	checkRetired(t, g.r, 0, 0)
	if n := g.r.StagedWriteBackEntries(); n != 0 {
		t.Fatalf("%d write-backs still staged after the drain", n)
	}
	for i := 0; i < 4; i++ {
		if got := storeWord(t, g.far.MapStore, retObj, i); got != uint64(100+i) {
			t.Fatalf("far tier obj %d = %d, want %d", i, got, 100+i)
		}
	}
}
