package farmem

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Circuit-breaker degradation to local memory.
//
// When the remote tier dies outright (server crash, partition), per-op
// retries only multiply the pain: every miss and every dirty eviction
// stalls through a full retry budget before failing. The breaker
// converts that into fail-fast degraded service: after
// Config.BreakerThreshold consecutive store failures it trips OPEN, and
// while open the runtime
//
//   - serves derefs of resident objects as usual (they never touch the
//     store),
//   - fails derefs of remote objects immediately with ErrDegraded,
//   - stops evicting dirty objects (their only copy is local now —
//     write-back has nowhere to go) and instead grows the remotable
//     budget up to a ceiling, pinning the working set in local memory,
//   - issues no prefetches.
//
// Recovery: a background Prober pings the store (when it has a Ping
// method) on a wall-clock interval; a successful ping arms HALF-OPEN
// and the next runtime store operation is the trial. If the trial
// succeeds the breaker closes, the dirty working set is drained back to
// the far tier, and the remotable budget shrinks to its configured
// size. Without a Ping method the breaker arms half-open by elapsed
// wall time alone.
//
// The same Breaker and Prober guard every backend of a multi-backend
// store (shardmap.Fleet), so a shard, a replica-group member and a
// single store fail and recover by one set of rules. Each failure is
// counted by one breaker: over a fleet (a Recoverable store) the
// backends are the fault domains, so the runtime's breaker is disarmed
// and the fleet's recovery epoch triggers the drain instead.

// ErrDegraded reports a remote-object access while the breaker is open:
// the far tier is unreachable and the object is not resident locally.
var ErrDegraded = errors.New("farmem: remote tier degraded (circuit breaker open)")

// Pinger is the optional liveness probe surface of a Store (the remote
// clients implement it); detected by type assertion.
type Pinger interface {
	Ping() error
}

// Recoverable is the optional recovery-signal surface of a Store whose
// failures are narrower than the whole tier (the sharded store), each
// slice behind its own breaker. Its epoch advances every time a
// previously degraded slice of the store comes back; the runtime
// compares epochs after successful operations and drains the dirty
// write-backs stranded by the outage exactly once per recovery. Over
// such a store the runtime arms no breaker of its own. Detected by type
// assertion.
type Recoverable interface {
	RecoveryEpoch() uint64
}

// DrainScoper is the optional drain-scoping surface of a Recoverable
// store. Without it, a recovery-epoch advance drains every dirty
// object and parked write-back in the cache — including objects owned
// by slices that never failed, and fail-fast attempts against slices
// still down. With it, the runtime asks per object:
//
//   - ShouldDrain: did the slice owning (ds, idx) recover after
//     sinceEpoch (and is it serving again)? Only then is the object's
//     write-back reissued on this epoch advance.
//   - Stranded: is the owning slice still refusing writes? Such
//     objects stay pinned (degradedDirty stays armed) for a future
//     epoch; objects on healthy slices that never failed are neither
//     drained nor counted as stranded.
//
// Detected by type assertion.
type DrainScoper interface {
	ShouldDrain(ds, idx int, sinceEpoch uint64) bool
	Stranded(ds, idx int) bool
}

// BreakerState enumerates the circuit-breaker states.
type BreakerState int32

// Breaker states.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "closed"
}

// Breaker is the closed / open / half-open state machine of one fault
// domain: the whole far tier under the runtime, one shard, one replica
// group member. It is shared between the goroutines operating on the
// domain and the Prober, hence the mutex: every transition happens under
// it and is cheap and rare. The state itself is additionally readable
// without the lock (State), because the runtime asks "is the tier
// degraded?" on paths that run per prefetch hint and per eviction, where
// a mutex round trip per question was the largest single cost of a
// guard hit. All methods are safe for concurrent use.
type Breaker struct {
	threshold  int           // consecutive failures that trip; <= 0 never trips
	probeEvery time.Duration // Prober tick, and the self-arming delay without a pinger
	ping       Pinger        // nil: the domain arms half-open by elapsed time in Gate

	mu       sync.Mutex
	state    atomic.Int32 // BreakerState; written only under mu
	consec   int          // consecutive failures while closed
	openedAt time.Time    // wall clock of the last trip
	probing  bool         // a probe claimed by TryProbe is running
}

// NewBreaker builds a closed breaker that trips after threshold
// consecutive failures (0: never). While open it is re-armed every
// probeEvery (0 means 250ms): by a Prober's successful ping when ping is
// non-nil, by elapsed time otherwise.
func NewBreaker(threshold int, probeEvery time.Duration, ping Pinger) *Breaker {
	if probeEvery <= 0 {
		probeEvery = 250 * time.Millisecond
	}
	return &Breaker{threshold: threshold, probeEvery: probeEvery, ping: ping}
}

// State returns the current state: one atomic load, no lock.
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// Gate is consulted before an operation. It returns false when the
// operation must fail fast. In the open state without a pinger it
// self-arms half-open once probeEvery has elapsed.
func (b *Breaker) Gate() bool {
	if b.State() != BreakerOpen {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.State() != BreakerOpen {
		return true
	}
	if b.ping != nil || time.Since(b.openedAt) < b.probeEvery {
		return false
	}
	b.state.Store(int32(BreakerHalfOpen))
	return true
}

// OnSuccess records a successful operation; reports true when this was
// the half-open trial that closed the breaker (the domain recovered).
func (b *Breaker) OnSuccess() (recovered bool) {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec = 0
	if b.State() == BreakerClosed {
		return false
	}
	b.state.Store(int32(BreakerClosed))
	return true
}

// OnFailure records a failed operation; reports true when this failure
// tripped the breaker open (a half-open trial failure re-opens without
// re-reporting).
func (b *Breaker) OnFailure() (tripped bool) {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec++
	tripped = b.State() == BreakerClosed && b.consec >= b.threshold
	if tripped || b.State() == BreakerHalfOpen {
		b.state.Store(int32(BreakerOpen))
		b.openedAt = time.Now()
	}
	return tripped
}

// TryProbe claims the probe slot when the breaker is open and no probe
// is already running; the claimant must call ProbeDone afterwards.
func (b *Breaker) TryProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.State() != BreakerOpen || b.probing {
		return false
	}
	b.probing = true
	return true
}

// ProbeDone releases the probe slot claimed by TryProbe with the ping's
// outcome: an answer moves open -> half-open, so the next operation is
// the recovery trial.
func (b *Breaker) ProbeDone(err error) {
	b.mu.Lock()
	b.probing = false
	if err == nil && b.State() == BreakerOpen {
		b.state.Store(int32(BreakerHalfOpen))
	}
	b.mu.Unlock()
}

// Prober is the background recovery loop of one or more breakers: every
// probeEvery it pings the store behind each open breaker, and an answer
// arms that breaker half-open so the next operation against it trials
// the recovery. Pings run off the loop goroutine, concurrently per
// breaker (a dead backend's connect timeout must not delay another's
// recovery) but never overlapping on one breaker. It runs on wall clock,
// not virtual cycles — probing is real-world I/O, invisible to the
// simulation until the trial op succeeds.
type Prober struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// StartProber starts the loop over bs, which share one probe interval.
// tick, when non-nil, runs on the loop goroutine after each round's
// probes are launched (the replica layer hangs its resync trigger
// there). It returns nil — which Close accepts — when there is nothing
// to do: no tick, and no breaker that can both trip and be pinged.
func StartProber(bs []*Breaker, tick func(*Prober)) *Prober {
	idle := tick == nil
	for _, b := range bs {
		idle = idle && (b.ping == nil || b.threshold <= 0)
	}
	if idle {
		return nil
	}
	p := &Prober{stop: make(chan struct{})}
	p.Go(func() {
		t := time.NewTicker(bs[0].probeEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
			for _, b := range bs {
				if b.ping != nil && b.TryProbe() {
					p.Go(func() { b.ProbeDone(b.ping.Ping()) })
				}
			}
			if tick != nil {
				tick(p)
			}
		}
	})
	return p
}

// Go runs fn on a goroutine that Close joins. Call it only from
// StartProber's tick; fn must return promptly once Stopped is closed.
func (p *Prober) Go(fn func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		fn()
	}()
}

// Stopped is closed when Close begins.
func (p *Prober) Stopped() <-chan struct{} { return p.stop }

// Close stops the loop and waits for it and for everything started with
// Go — an in-flight ping included, so it returns within one transport
// timeout and no probe touches a store the caller closes next.
func (p *Prober) Close() {
	if p == nil {
		return
	}
	close(p.stop)
	p.wg.Wait()
}

// breakerIsOpen is the hot-path check the allocator and evictor use.
func (r *Runtime) breakerIsOpen() bool { return r.breaker.State() != BreakerClosed }

// BreakerState reports the breaker's current state (always
// BreakerClosed when no threshold is configured).
func (r *Runtime) BreakerState() BreakerState { return r.breaker.State() }

// storeRead is the fault path's read through the breaker + retry
// wrapper.
func (r *Runtime) storeRead(d *DS, idx int, dst []byte) error {
	return r.storeOp(func() error { return r.store.ReadObj(d.ID, idx, dst) })
}

// storeWrite is the write-back path through the breaker + retry
// wrapper. Replaying a write-back is safe at this layer: write-backs
// carry the full object and the runtime is the single writer, so a
// duplicated (uncertain) write is idempotent — which is exactly why the
// transport refuses to make this call and the runtime gets to.
func (r *Runtime) storeWrite(d *DS, idx int, src []byte) error {
	return r.storeOp(func() error { return r.store.WriteObj(d.ID, idx, src) })
}

// storeOp runs one store operation under the breaker gate with up to
// Config.RetryMax reissues, charging each reissue to the simulated link
// (a wasted round trip plus backoff). A success that closes a half-open
// breaker advances the runtime's recovery epoch; every success then
// checks for a recovery to drain.
func (r *Runtime) storeOp(op func() error) error {
	if !r.breaker.Gate() {
		r.stats.DegradedOps++
		return ErrDegraded
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			if r.breaker.OnSuccess() {
				r.stats.BreakerRecoveries++
			}
			r.drainRecovered()
			return nil
		}
		if errors.Is(err, ErrDegraded) {
			// The fault domain owning this object is down: its breaker
			// fails the operation fast until it recovers, so a retry
			// cannot help.
			r.stats.DegradedOps++
			return err
		}
		if attempt >= r.retryMax {
			break
		}
		r.stats.StoreRetries++
		r.link.Retry()
	}
	r.noteFault()
	return err
}

// noteFault counts one failed store operation against the breaker. A
// trip pins every dirty object, so it arms the next recovery's drain.
func (r *Runtime) noteFault() {
	if r.breaker.OnFailure() {
		r.stats.BreakerTrips++
		r.degradedDirty = true
		r.emit(EvBreakerTrip, -1, 0, false)
	}
}

// drainRecovered is the one recovery drain, run after every successful
// store operation. It fires when the recovery epoch advances — a
// fleet's (Recoverable), or over a single store the count of the
// runtime breaker's closings — with something pinned, and writes every
// dirty resident object, then every parked staged write-back (the only
// copy of its object outside any frame), back to the far tier. An
// unread object (see deref) is passed over: its eviction splices its
// log.
//
// A fleet's scope (DrainScoper) limits the drain to objects whose slice
// recovered since the last epoch: those of slices still down stay
// pinned, and those of slices that never failed are not re-written. The
// budget shrinks back once nothing is left pinned. A single store has
// no scope: everything drains, a failure other than ErrDegraded (the
// store failed again) abandons the drain with the rest still pinned, and
// a finished drain shrinks the budget back. draining guards against
// reentry: the drain's own write-backs run through storeOp.
func (r *Runtime) drainRecovered() {
	ep := r.stats.BreakerRecoveries
	if r.recoverable != nil {
		ep = r.recoverable.RecoveryEpoch()
	}
	if r.draining || ep == r.lastRecoveryEpoch {
		return
	}
	since := r.lastRecoveryEpoch
	r.lastRecoveryEpoch = ep
	if !r.degradedDirty {
		return
	}
	r.draining = true
	defer func() { r.draining = false }()
	r.emit(EvBreakerRecover, -1, 0, false)
	single, scope, remain := r.recoverable == nil, r.drainScoper, false
	for _, d := range r.dss {
		for idx := range d.objs {
			obj := &d.objs[idx]
			if obj.state != objLocal || !obj.dirty || obj.log != nil {
				continue
			}
			if scope != nil && !scope.ShouldDrain(d.ID, idx, since) {
				remain = remain || scope.Stranded(d.ID, idx)
				continue
			}
			if err := r.storeWrite(d, idx, r.arena.Bytes(obj.frame, d.Meta.ObjSize)); err != nil {
				if single && !errors.Is(err, ErrDegraded) {
					return
				}
				remain = true
				continue
			}
			r.link.WriteBack(d.Meta.ObjSize)
			obj.dirty = false
			d.stats.WriteBacks++
			r.stats.DrainedWriteBacks++
		}
	}
	r.degradedDirty = r.drainParked(scope, since) || remain
	if single || !r.degradedDirty {
		r.remotableBudget = r.baseRemotableBudget
	}
}

// growBudget is degraded-mode allocation: the remotable budget grows to
// fit sz more bytes (up to 4x the configured budget) instead of
// evicting. allocFrame turns to it while the breaker is open — dirty
// evictions are impossible and clean evictions would shrink the only
// copy of the working set we can still serve — and when eviction found
// only victims whose dirty write-backs are refused by a degraded shard.
func (r *Runtime) growBudget(sz uint64) bool {
	want := r.remotableUsed + sz
	if want > 4*r.baseRemotableBudget {
		return false
	}
	r.remotableBudget = want
	return true
}

// Close settles any staged write-backs still in flight (the far tier
// must hold every dirty payload once the runtime is gone) and stops the
// breaker's prober, waiting out a ping in flight: the caller is free to
// close the store next. Safe to call multiple times.
func (r *Runtime) Close() error {
	var err error
	r.closeOnce.Do(func() {
		err = r.DrainWriteBacks()
		r.prober.Close()
	})
	return err
}

// errDegradedDeref wraps ErrDegraded with the faulting object for
// diagnostics while keeping errors.Is(err, ErrDegraded) true.
func errDegradedDeref(ds, idx int) error {
	return fmt.Errorf("farmem: deref ds%d[%d]: %w", ds, idx, ErrDegraded)
}
