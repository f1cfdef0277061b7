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
// Recovery: a background prober pings the store (when it has a Ping
// method) on a wall-clock interval; a successful ping arms HALF-OPEN
// and the next runtime store operation is the trial. If the trial
// succeeds the breaker closes, the dirty working set is drained back to
// the far tier, and the remotable budget shrinks to its configured
// size. Without a Ping method the breaker arms half-open by elapsed
// wall time alone.

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

// breaker holds the state machine. It is shared between the
// single-threaded runtime and the background prober goroutine, hence
// the mutex: every transition happens under it and is cheap and rare.
// The state itself is additionally readable without the lock (State),
// because the runtime asks "is the tier degraded?" on paths that run
// per prefetch hint and per eviction, where a mutex round trip per
// question was the largest single cost of a guard hit.
type breaker struct {
	threshold  int
	probeEvery time.Duration
	hasPinger  bool

	mu       sync.Mutex
	state    atomic.Int32 // BreakerState; written only under mu
	consec   int          // consecutive failures while closed
	openedAt time.Time    // wall clock of the last trip
}

// gate is consulted before a store operation. It returns false when the
// operation must fail fast with ErrDegraded. In the open state without
// a prober it self-arms half-open once probeEvery has elapsed.
func (b *breaker) gate() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.State() != BreakerOpen {
		return true
	}
	if !b.hasPinger && time.Since(b.openedAt) >= b.probeEvery {
		b.setState(BreakerHalfOpen)
		return true
	}
	return false
}

// onSuccess records a successful store operation; reports true when
// this was the half-open trial that closed the breaker (the caller then
// runs recovery).
func (b *breaker) onSuccess() (recovered bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec = 0
	if b.State() == BreakerClosed {
		return false
	}
	b.setState(BreakerClosed)
	return true
}

// onFailure records a failed store operation; reports true when this
// failure tripped the breaker open (a half-open trial failure re-opens
// without re-reporting).
func (b *breaker) onFailure() (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consec++
	switch b.State() {
	case BreakerHalfOpen:
		b.setState(BreakerOpen)
		b.openedAt = time.Now()
	case BreakerClosed:
		if b.consec >= b.threshold {
			b.setState(BreakerOpen)
			b.openedAt = time.Now()
			return true
		}
	}
	return false
}

// armHalfOpen moves open -> half-open (called by the prober after a
// successful ping); the next store operation is the trial.
func (b *breaker) armHalfOpen() {
	b.mu.Lock()
	if b.State() == BreakerOpen {
		b.setState(BreakerHalfOpen)
	}
	b.mu.Unlock()
}

// State returns the current state: one atomic load, no lock. A reader
// that must also act on the state atomically with a transition (gate,
// onSuccess, onFailure, armHalfOpen) holds mu around it.
func (b *breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// setState publishes a transition; the caller holds mu.
func (b *breaker) setState(s BreakerState) { b.state.Store(int32(s)) }

// isOpen is the hot-path check the allocator and evictor use.
func (r *Runtime) breakerIsOpen() bool {
	return r.breaker != nil && r.breaker.State() != BreakerClosed
}

// BreakerState reports the breaker's current state (BreakerClosed when
// no breaker is configured).
func (r *Runtime) BreakerState() BreakerState {
	if r.breaker == nil {
		return BreakerClosed
	}
	return r.breaker.State()
}

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
	b := r.breaker
	if b != nil && !b.gate() {
		r.stats.DegradedOps++
		return ErrDegraded
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			if b != nil && b.onSuccess() {
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
	if b != nil && b.onFailure() {
		r.stats.BreakerTrips++
		r.emit(EvBreakerTrip, -1, 0, false)
	}
	return err
}

// recoverRemote runs after the half-open trial closed the breaker:
// drain every dirty resident object back to the far tier, then shrink
// the remotable budget to its configured size (subsequent allocations
// evict back down to it). A failure mid-drain re-trips the breaker and
// aborts; the remaining dirty objects stay pinned until the next
// recovery.
func (r *Runtime) recoverRemote() {
	r.stats.BreakerRecoveries++
	r.emit(EvBreakerRecover, -1, 0, false)
	for _, d := range r.dss {
		for idx := range d.objs {
			obj := &d.objs[idx]
			if obj.state != objLocal || !obj.dirty {
				continue
			}
			if err := r.storeWrite(d, idx, r.arena.Bytes(obj.frame, d.Meta.ObjSize)); err != nil {
				if errors.Is(err, ErrDegraded) {
					// The owning shard is still down; its objects stay
					// pinned until that shard's own recovery epoch.
					r.degradedDirty = true
					continue
				}
				return // re-tripped (or transient): stop, stay pinned
			}
			r.link.WriteBack(d.Meta.ObjSize)
			obj.dirty = false
			d.stats.WriteBacks++
			r.stats.DrainedWriteBacks++
		}
	}
	// Staged write-backs parked while the tier was down hold the only
	// copy of their objects outside any frame; reissue them too.
	if r.drainParkedWB() {
		r.degradedDirty = true
	}
	r.remotableBudget = r.baseRemotableBudget
}

// maybeDrainShards runs after every successful store operation: when the
// store's recovery epoch has advanced (a shard came back) and dirty
// objects were stranded by per-shard degradation, it drains them back to
// the far tier and shrinks the remotable budget once nothing is left
// pinned. Write-backs to shards that are still down fail fast with
// ErrDegraded and stay pinned for the next epoch.
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
	// With a DrainScoper the drain touches only objects whose owning
	// slice recovered in (prev, ep]; objects on slices still down stay
	// pinned without a wasted fail-fast write, and objects on healthy
	// slices that were never stranded are not re-written at all.
	scope := r.drainScoper
	remain := false
	for _, d := range r.dss {
		for idx := range d.objs {
			obj := &d.objs[idx]
			if obj.state != objLocal || !obj.dirty {
				continue
			}
			if scope != nil && !scope.ShouldDrain(d.ID, idx, prev) {
				if scope.Stranded(d.ID, idx) {
					remain = true
				}
				continue
			}
			if err := r.storeWrite(d, idx, r.arena.Bytes(obj.frame, d.Meta.ObjSize)); err != nil {
				remain = true
				continue
			}
			r.link.WriteBack(d.Meta.ObjSize)
			obj.dirty = false
			d.stats.WriteBacks++
			r.stats.DrainedWriteBacks++
		}
	}
	// Parked staged write-backs stranded by the same shard outage drain
	// through the identical fail-fast path, under the same scope.
	if r.drainParkedWBScoped(prev) {
		remain = true
	}
	r.degradedDirty = remain
	if !remain {
		r.remotableBudget = r.baseRemotableBudget
	}
}

// growBudgetFor implements degraded-mode allocation: while the breaker
// is open the remotable budget grows (up to the ceiling) instead of
// evicting — dirty evictions are impossible and clean evictions would
// shrink the only copy of the working set we can still serve.
func (r *Runtime) growBudgetFor(sz uint64) bool {
	if !r.breakerIsOpen() {
		return false
	}
	return r.growBudget(sz)
}

// growBudget grows the remotable budget up to the ceiling. It is the
// unconditional half of degraded-mode allocation, also used when the
// global breaker is closed but eviction found only victims whose dirty
// write-backs are refused by a degraded shard.
func (r *Runtime) growBudget(sz uint64) bool {
	want := r.remotableUsed + sz
	if want <= r.remotableBudget {
		return true
	}
	if want > r.breakerCeiling {
		return false
	}
	r.remotableBudget = want
	return true
}

// probeLoop is the background prober: while the breaker is open it
// pings the store every probeEvery; a successful ping arms half-open so
// the next runtime operation trials the recovery. It runs on wall
// clock, not virtual cycles — probing is real-world I/O, invisible to
// the simulation until the trial op succeeds.
func (r *Runtime) probeLoop(p Pinger) {
	t := time.NewTicker(r.breaker.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-r.breakerStop:
			return
		case <-t.C:
			if r.breaker.State() != BreakerOpen {
				continue
			}
			if p.Ping() == nil {
				r.breaker.armHalfOpen()
			}
		}
	}
}

// Close settles any staged write-backs still in flight (the far tier
// must hold every dirty payload once the runtime is gone) and releases
// background resources (the breaker prober). Safe to call multiple
// times; a Runtime without a breaker needs no Close but tolerates one.
func (r *Runtime) Close() error {
	var err error
	r.closeOnce.Do(func() {
		err = r.DrainWriteBacks()
		if r.breakerStop != nil {
			close(r.breakerStop)
		}
	})
	return err
}

// errDegradedDeref wraps ErrDegraded with the faulting object for
// diagnostics while keeping errors.Is(err, ErrDegraded) true.
func errDegradedDeref(ds, idx int) error {
	return fmt.Errorf("farmem: deref ds%d[%d]: %w", ds, idx, ErrDegraded)
}
