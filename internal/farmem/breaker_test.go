package farmem

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cards/internal/testutil"
)

// pingFunc adapts a function to Pinger.
type pingFunc func() error

func (f pingFunc) Ping() error { return f() }

// TestBreakerStateMachine walks the one breaker every fault domain uses
// (runtime, shard, replica member) through its whole transition table,
// for both ways of leaving the open state — a prober's ping (pingable)
// and elapsed time in Gate (self-arming) — and for thresholds that never
// trip (0), trip at once (1) and trip at the n-th consecutive failure.
func TestBreakerStateMachine(t *testing.T) {
	for _, pingable := range []bool{true, false} {
		for _, n := range []int{0, 1, 4} {
			kind := map[bool]string{true: "pingable", false: "self-arming"}[pingable]
			t.Run(fmt.Sprintf("%s/threshold=%d", kind, n), func(t *testing.T) {
				var ping Pinger
				if pingable {
					ping = pingFunc(func() error { return nil })
				}
				b := NewBreaker(n, time.Hour, ping)
				want := func(when string, st BreakerState, gate bool) {
					t.Helper()
					if got := b.State(); got != st {
						t.Fatalf("%s: state %v, want %v", when, got, st)
					}
					if got := b.Gate(); got != gate {
						t.Fatalf("%s: Gate() = %v, want %v", when, got, gate)
					}
				}
				failN := func(when string, k int) {
					t.Helper()
					for i := 0; i < k; i++ {
						if b.OnFailure() {
							t.Fatalf("%s: failure %d of %d tripped", when, i+1, k)
						}
					}
				}
				// arm leaves the open state the way this kind of breaker does.
				arm := func() {
					t.Helper()
					if pingable {
						if !b.TryProbe() {
							t.Fatal("TryProbe refused on an open breaker with a free slot")
						}
						b.ProbeDone(nil)
					} else {
						b.openedAt = b.openedAt.Add(-b.probeEvery) // the probe window elapses
						if !b.Gate() {
							t.Fatal("Gate still refuses after the probe window")
						}
					}
					want("armed", BreakerHalfOpen, true)
				}

				if n == 0 {
					failN("threshold 0", 100)
					want("threshold 0 after 100 failures", BreakerClosed, true)
					if b.TryProbe() {
						t.Fatal("TryProbe claimed a slot on a closed breaker")
					}
					return
				}

				// Trip exactly at n; a success in the closed state resets the count.
				failN("below threshold", n-1)
				if b.OnSuccess() {
					t.Fatal("OnSuccess on a closed breaker reported a recovery")
				}
				failN("after the reset", n-1)
				want("one short of the threshold", BreakerClosed, true)
				b.ProbeDone(nil)
				want("ProbeDone(nil) on a closed breaker", BreakerClosed, true)
				if !b.OnFailure() {
					t.Fatalf("failure %d did not trip", n)
				}
				want("tripped", BreakerOpen, false)

				// The probe slot is exclusive, and a failed ping arms nothing.
				if !b.TryProbe() || b.TryProbe() {
					t.Fatal("TryProbe must claim the slot once, and only once")
				}
				b.ProbeDone(errInjected)
				want("after a failed ping", BreakerOpen, false)

				// A half-open trial failure re-opens without a second trip.
				arm()
				if b.TryProbe() {
					t.Fatal("TryProbe claimed a slot on a half-open breaker")
				}
				b.ProbeDone(nil)
				want("ProbeDone(nil) on a half-open breaker", BreakerHalfOpen, true)
				if b.OnFailure() {
					t.Fatal("a failed half-open trial reported a second trip")
				}
				want("re-opened", BreakerOpen, false)

				// A successful trial recovers, once, and resets the count.
				arm()
				if !b.OnSuccess() || b.OnSuccess() {
					t.Fatal("the half-open trial's success must report the recovery, once")
				}
				failN("after the recovery", n-1)
				want("recovered", BreakerClosed, true)

				// So does a success that lands while open (an operation
				// admitted before the trip).
				if !b.OnFailure() {
					t.Fatal("the n-th failure after the recovery did not trip")
				}
				if !b.OnSuccess() {
					t.Fatal("a success on an open breaker did not report the recovery")
				}
				failN("after the late success", n-1)
				want("closed by the late success", BreakerClosed, true)
			})
		}
	}
}

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
	testutil.NoGoroutineLeaks(t)
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

// slowPingStore's Ping announces itself on entered and then blocks until
// release is closed: a probe stuck on a black-holed backend.
type slowPingStore struct {
	*toggleStore
	entered, release chan struct{}
}

func (s *slowPingStore) Ping() error {
	s.entered <- struct{}{}
	<-s.release
	return errInjected
}

// TestBreakerCloseJoinsProber: Close must not return while the prober is
// inside Ping — the caller closes the store next (cards.Runtime.Close
// does) — and must return as soon as that ping does, which the
// transport bounds by its Timeout.
func TestBreakerCloseJoinsProber(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	ts := &slowPingStore{&toggleStore{inner: NewMapStore()}, make(chan struct{}), make(chan struct{})}
	r, addr := breakerRuntime(t, ts, time.Millisecond)
	writeWorkingSet(t, r, addr, 6)
	ts.setFailing(true)
	for i := 0; i < 2; i++ {
		r.Guard(addr, false)
	}
	if r.BreakerState() != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	<-ts.entered // the prober is now inside Ping

	closed := make(chan struct{})
	go func() {
		r.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a ping still in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(ts.release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the ping did")
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
			r.pfRemote = false
			if r.PrefetchObj(d, remote); !r.pfRemote {
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
