package farmem

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// toggleStore injects failures under a flag that tests flip to simulate
// a far tier dying and coming back. The mutex makes the flag safe to
// flip while the breaker's prober goroutine is pinging.
type toggleStore struct {
	inner   Store
	mu      sync.Mutex
	failing bool
}

func (s *toggleStore) setFailing(f bool) {
	s.mu.Lock()
	s.failing = f
	s.mu.Unlock()
}

func (s *toggleStore) down() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failing
}

func (s *toggleStore) ReadObj(ds, idx int, dst []byte) error {
	if s.down() {
		return errInjected
	}
	return s.inner.ReadObj(ds, idx, dst)
}

func (s *toggleStore) WriteObj(ds, idx int, src []byte) error {
	if s.down() {
		return errInjected
	}
	return s.inner.WriteObj(ds, idx, src)
}

// pingToggleStore adds the Pinger probe surface.
type pingToggleStore struct {
	*toggleStore
}

func (s *pingToggleStore) Ping() error {
	if s.down() {
		return errInjected
	}
	return nil
}

// writeWorkingSet dirties objects 0..n-1 (value 1000+i), forcing
// evictions when n exceeds the resident budget.
func writeWorkingSet(t *testing.T, r *Runtime, addr uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := r.Guard(addr+uint64(i*4096), true)
		if err != nil {
			t.Fatalf("write obj %d: %v", i, err)
		}
		r.WriteWord(p, uint64(1000+i))
	}
}

func breakerRuntime(t *testing.T, store Store, probe time.Duration) (*Runtime, uint64) {
	t.Helper()
	r := New(Config{
		PinnedBudget:     1 << 20,
		RemotableBudget:  2 * 4096,
		Store:            store,
		BreakerThreshold: 2,
		BreakerProbe:     probe,
	})
	t.Cleanup(func() { r.Close() })
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

func TestStoreRetryHealsTransientFaults(t *testing.T) {
	// Each op fails twice then succeeds; RetryMax 3 rides through.
	r := New(Config{
		PinnedBudget:    1 << 20,
		RemotableBudget: 2 * 4096,
		Store:           &flaky{inner: NewMapStore(), failFirst: 2},
		RetryMax:        3,
	})
	r.RegisterDS(0, DSMeta{ObjSize: 4096})
	r.SetPlacement(0, PlaceRemotable)
	addr, _ := r.DSAlloc(0, 8*4096)
	writeWorkingSet(t, r, addr, 6)
	if _, err := r.Guard(addr, false); err != nil {
		t.Fatalf("retries should heal the flaky store: %v", err)
	}
	if r.Stats().StoreRetries == 0 {
		t.Fatal("expected StoreRetries > 0")
	}
	if r.Link().Retries == 0 {
		t.Fatal("expected link retry charges")
	}
}

// flaky fails failFirst out of every failFirst+1 store calls, so any op
// with at least failFirst retries eventually lands.
type flaky struct {
	inner     Store
	failFirst int
	calls     int
}

func (f *flaky) ReadObj(ds, idx int, dst []byte) error {
	return f.call(func() error { return f.inner.ReadObj(ds, idx, dst) })
}

func (f *flaky) WriteObj(ds, idx int, src []byte) error {
	return f.call(func() error { return f.inner.WriteObj(ds, idx, src) })
}

func (f *flaky) call(op func() error) error {
	f.calls++
	if f.calls%(f.failFirst+1) != 0 {
		return errInjected
	}
	return op()
}

func TestBreakerTripsAndDegrades(t *testing.T) {
	ts := &toggleStore{inner: NewMapStore()}
	r, addr := breakerRuntime(t, ts, time.Hour) // probe never fires
	writeWorkingSet(t, r, addr, 6)              // objs 4,5 resident dirty; 0..3 remote
	ts.setFailing(true)

	// Two consecutive failures trip the breaker (threshold 2).
	for i := 0; i < 2; i++ {
		if _, err := r.Guard(addr, false); err == nil {
			t.Fatal("expected failure while store is down")
		}
	}
	if got := r.Stats().BreakerTrips; got != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", got)
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("state = %v, want open", r.BreakerState())
	}

	// Remote derefs now fail fast with ErrDegraded...
	fetchesBefore := r.Stats().RemoteFetches
	if _, err := r.Guard(addr, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded", err)
	}
	if r.Stats().RemoteFetches != fetchesBefore {
		t.Fatal("degraded deref must not attempt a fetch")
	}
	if r.Stats().DegradedOps == 0 {
		t.Fatal("expected DegradedOps > 0")
	}

	// ...while resident objects keep serving.
	p, err := r.Guard(addr+5*4096, false)
	if err != nil {
		t.Fatalf("resident deref while degraded: %v", err)
	}
	if v, _ := r.ReadWord(p); v != 1005 {
		t.Fatalf("resident value = %d, want 1005", v)
	}

	// New (uninit) objects materialize by growing the budget past its
	// configured size instead of evicting the dirty residents.
	if _, err := r.Guard(addr+6*4096, true); err != nil {
		t.Fatalf("materialize while degraded: %v", err)
	}
	if _, err := r.Guard(addr+7*4096, true); err != nil {
		t.Fatalf("materialize while degraded: %v", err)
	}
	if r.RemotableUsed() <= 2*4096 {
		t.Fatalf("remotable used = %d, want growth beyond the 8192 budget", r.RemotableUsed())
	}
	for i := 4; i <= 7; i++ {
		if st := r.DSByID(0).objs[i].state; st != objLocal {
			t.Fatalf("obj %d state = %v, want local (dirty residents pinned)", i, st)
		}
	}
}

func TestBreakerRecoveryViaProberDrainsDirty(t *testing.T) {
	ts := &pingToggleStore{&toggleStore{inner: NewMapStore()}}
	r, addr := breakerRuntime(t, ts, 2*time.Millisecond)
	writeWorkingSet(t, r, addr, 6)
	ts.setFailing(true)
	for i := 0; i < 2; i++ {
		r.Guard(addr, false)
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatal("breaker should be open")
	}

	// Heal the store; the prober should arm half-open shortly.
	ts.setFailing(false)
	deadline := time.Now().Add(2 * time.Second)
	for r.BreakerState() == BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("prober never armed half-open")
		}
		time.Sleep(time.Millisecond)
	}

	// The next remote deref is the trial: it must close the breaker,
	// drain the dirty residents, and restore the budget.
	p, err := r.Guard(addr, false)
	if err != nil {
		t.Fatalf("trial deref: %v", err)
	}
	if v, _ := r.ReadWord(p); v != 1000 {
		t.Fatalf("recovered value = %d, want 1000", v)
	}
	st := r.Stats()
	if st.BreakerRecoveries != 1 {
		t.Fatalf("BreakerRecoveries = %d, want 1", st.BreakerRecoveries)
	}
	if st.DrainedWriteBacks == 0 {
		t.Fatal("expected dirty residents drained on recovery")
	}
	if r.remotableBudget != r.baseRemotableBudget {
		t.Fatalf("budget not restored: %d != %d", r.remotableBudget, r.baseRemotableBudget)
	}
	// The whole working set must read back intact after the outage.
	for i := 0; i < 6; i++ {
		p, err := r.Guard(addr+uint64(i*4096), false)
		if err != nil {
			t.Fatalf("post-recovery read %d: %v", i, err)
		}
		if v, _ := r.ReadWord(p); v != uint64(1000+i) {
			t.Fatalf("obj %d = %d, want %d", i, v, 1000+i)
		}
	}
}

func TestBreakerHalfOpenByElapsedTimeWithoutPinger(t *testing.T) {
	ts := &toggleStore{inner: NewMapStore()} // no Ping method
	r, addr := breakerRuntime(t, ts, 5*time.Millisecond)
	writeWorkingSet(t, r, addr, 6)
	ts.setFailing(true)
	for i := 0; i < 2; i++ {
		r.Guard(addr, false)
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	if _, err := r.Guard(addr, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded before probe window", err)
	}

	ts.setFailing(false)
	time.Sleep(10 * time.Millisecond)
	// gate self-arms half-open after probeEvery; this deref is the trial.
	if _, err := r.Guard(addr, false); err != nil {
		t.Fatalf("trial deref after elapsed probe window: %v", err)
	}
	if r.Stats().BreakerRecoveries != 1 {
		t.Fatalf("BreakerRecoveries = %d, want 1", r.Stats().BreakerRecoveries)
	}
}

func TestBreakerHalfOpenTrialFailureReopens(t *testing.T) {
	ts := &toggleStore{inner: NewMapStore()}
	r, addr := breakerRuntime(t, ts, 5*time.Millisecond)
	writeWorkingSet(t, r, addr, 6)
	ts.setFailing(true)
	for i := 0; i < 2; i++ {
		r.Guard(addr, false)
	}
	time.Sleep(10 * time.Millisecond)
	// Probe window elapsed but the store is still down: the trial fails
	// and the breaker re-opens without another trip being counted.
	if _, err := r.Guard(addr, false); err == nil || errors.Is(err, ErrDegraded) {
		t.Fatalf("trial should fail with the store error, got %v", err)
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatalf("state = %v, want re-opened", r.BreakerState())
	}
	if got := r.Stats().BreakerTrips; got != 1 {
		t.Fatalf("BreakerTrips = %d, want 1 (re-open is not a new trip)", got)
	}
}

func TestDegradedDerefDoesNotLeakBudget(t *testing.T) {
	// A failed remote read must hand its frame back — otherwise every
	// faulted deref under an outage erodes the remotable budget.
	ts := &toggleStore{inner: NewMapStore()}
	r, addr := breakerRuntime(t, ts, time.Hour)
	writeWorkingSet(t, r, addr, 6)
	used := r.RemotableUsed()
	ts.setFailing(true)
	for i := 0; i < 10; i++ {
		r.Guard(addr, false) // store errors, then ErrDegraded
	}
	if r.RemotableUsed() != used {
		t.Fatalf("remotable used %d -> %d: failed fetches leaked frames", used, r.RemotableUsed())
	}
}

// reachableDeadStore answers pings but fails every data operation while
// failing is set: the prober keeps arming half-open and every trial
// re-opens, so the breaker flips open <-> half-open for as long as the
// test runs.
type reachableDeadStore struct{ *toggleStore }

func (reachableDeadStore) Ping() error { return nil }

// TestBreakerStateLockFreeUnderProber hammers the runtime-side readers
// of the breaker state (PrefetchObj, evictOne, BreakerState — all plain
// atomic loads now) while the prober goroutine and failing trials flip
// the state under the mutex. Once tripped, with no operation ever
// succeeding, the only states the state machine publishes are open and
// half-open: a reader must never see closed (a torn or stale read would
// let a prefetch through), and under -race the unlocked read must not
// race the locked writes.
func TestBreakerStateLockFreeUnderProber(t *testing.T) {
	ts := &toggleStore{inner: NewMapStore()}
	r, addr := breakerRuntime(t, reachableDeadStore{ts}, 100*time.Microsecond)
	writeWorkingSet(t, r, addr, 8) // 2 resident, 6 evicted to the store
	d := r.DSByID(0)
	remote := -1
	for i := range d.objs {
		if d.objs[i].state == objRemote {
			remote = i
			break
		}
	}
	if remote < 0 {
		t.Fatal("no remote object to aim at")
	}

	ts.setFailing(true)
	for r.BreakerState() == BreakerClosed {
		if _, err := r.Guard(addr+uint64(remote*4096), false); err == nil {
			t.Fatal("deref of a remote object succeeded against a dead store")
		}
	}
	issuedBefore := d.Stats().PrefetchIssued

	var sawOpen, sawHalfOpen int
	deadline := time.Now().Add(5 * time.Second)
	for (sawOpen < 50 || sawHalfOpen < 50) && time.Now().Before(deadline) {
		for i := 0; i < 100; i++ {
			if !r.PrefetchObj(d, remote) {
				t.Fatal("remote object reported not remote")
			}
			r.evictOne() // clean victims go, dirty ones stay pinned; either way it reads the state
			switch st := r.BreakerState(); st {
			case BreakerOpen:
				sawOpen++
			case BreakerHalfOpen:
				sawHalfOpen++
				// The trial: fails, and re-opens the breaker.
				if _, err := r.Guard(addr+uint64(remote*4096), false); err == nil {
					t.Fatal("half-open trial succeeded against a dead store")
				}
			default:
				t.Fatalf("observed breaker state %v after the trip; only open and half-open were ever published", st)
			}
		}
	}
	if sawOpen < 50 || sawHalfOpen < 50 {
		t.Fatalf("breaker did not keep flipping: saw open %d times, half-open %d times", sawOpen, sawHalfOpen)
	}
	if got := d.Stats().PrefetchIssued; got != issuedBefore {
		t.Fatalf("%d prefetches issued while the breaker was never closed", got-issuedBefore)
	}
}
