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
// store (shardmap.Fleet), so a shard, a replica-group member and the
// tier as a whole fail and recover by one set of rules.

// ErrDegraded reports a remote-object access while the breaker is open:
// the far tier is unreachable and the object is not resident locally.
var ErrDegraded = errors.New("farmem: remote tier degraded (circuit breaker open)")

// Pinger is the optional liveness probe surface of a Store (the remote
// clients implement it); detected by type assertion.
type Pinger interface {
	Ping() error
}

// Recoverable is the optional recovery-signal surface of a Store whose
// failures are narrower than the whole tier (the sharded store). Its
// epoch advances every time a previously degraded slice of the store
// comes back; the runtime compares epochs after successful operations
// and drains the dirty write-backs stranded by the outage exactly once
// per recovery. Detected by type assertion.
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
// breaker triggers recovery: budget restore + dirty drain.
func (r *Runtime) storeOp(op func() error) error {
	if !r.breaker.Gate() {
		r.stats.DegradedOps++
		return ErrDegraded
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			if r.breaker.OnSuccess() {
				r.recoverRemote()
			}
			r.maybeDrainShards()
			return nil
		}
		if errors.Is(err, ErrDegraded) {
			// A sharded store refused the operation because the one shard
			// owning this object is down. The failure is already contained
			// to that shard's breaker: retrying cannot help (the gate fails
			// fast until the shard recovers) and counting it against the
			// global breaker would wrongly degrade the healthy shards too.
			r.stats.DegradedOps++
			return err
		}
		if attempt >= r.retryMax {
			break
		}
		r.stats.StoreRetries++
		r.link.Retry()
	}
	r.noteFault(err)
	return err
}

// noteFault counts one failed store operation against the breaker —
// unless it is a contained per-shard degradation, which must not trip
// the global breaker.
func (r *Runtime) noteFault(err error) {
	if !errors.Is(err, ErrDegraded) && r.breaker.OnFailure() {
		r.stats.BreakerTrips++
		r.emit(EvBreakerTrip, -1, 0, false)
	}
}

// drainDirty is the one recovery drain: it writes every dirty resident
// object, then every parked staged write-back (which hold the only copy
// of their objects outside any frame), back to the far tier. With a
// scope it touches only objects whose owning slice recovered after
// since; objects on slices still down stay pinned without a wasted
// fail-fast write, and objects on healthy slices that were never
// stranded are not re-written at all. An unread object (see deref) is
// passed over: its frame holds only its log, and its eviction splices
// that. remain reports work left pinned for a later recovery. With
// stopOnFault a failure other than ErrDegraded (the tier re-tripped, or
// a transient) abandons the drain: done is false and the remaining
// dirty objects stay pinned.
func (r *Runtime) drainDirty(scope DrainScoper, since uint64, stopOnFault bool) (remain, done bool) {
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
				if stopOnFault && !errors.Is(err, ErrDegraded) {
					return remain, false
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
	return r.drainParked(scope, since) || remain, true
}

// recoverRemote runs after the half-open trial closed the breaker:
// drain everything (objects whose own shard is still down stay pinned
// until that shard's recovery epoch), then shrink the remotable budget
// to its configured size (subsequent allocations evict back down to
// it).
func (r *Runtime) recoverRemote() {
	r.stats.BreakerRecoveries++
	r.emit(EvBreakerRecover, -1, 0, false)
	remain, done := r.drainDirty(nil, 0, true)
	r.degradedDirty = r.degradedDirty || remain
	if done {
		r.remotableBudget = r.baseRemotableBudget
	}
}

// maybeDrainShards runs after every successful store operation: when the
// store's recovery epoch has advanced (a shard came back) and dirty
// objects were stranded by per-shard degradation, it drains them under
// the store's DrainScoper (if any) and shrinks the remotable budget once
// nothing is left pinned.
func (r *Runtime) maybeDrainShards() {
	if r.recoverable == nil || r.draining {
		return
	}
	ep := r.recoverable.RecoveryEpoch()
	if ep == r.lastRecoveryEpoch {
		return
	}
	prev := r.lastRecoveryEpoch
	r.lastRecoveryEpoch = ep
	if !r.degradedDirty {
		return
	}
	r.draining = true
	defer func() { r.draining = false }()
	r.emit(EvBreakerRecover, -1, 0, false)
	r.degradedDirty, _ = r.drainDirty(r.drainScoper, prev, false)
	if !r.degradedDirty {
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
