package shardmap

import (
	"sync"
	"time"

	"cards/internal/farmem"
)

// Domain is one backend's private fault domain: a circuit breaker at
// backend scope plus probe bookkeeping. It mirrors the farmem global
// breaker's state machine (closed / open / half-open) but per backend,
// so one dead backend degrades only the keys it owns. Extracted from
// the sharded store's shard struct so the replica layer drives the
// identical state machine per group member.
//
// All methods are safe for concurrent use.
type Domain struct {
	mu       sync.Mutex
	state    farmem.BreakerState
	consec   int
	openedAt time.Time
	probing  bool
}

// Gate reports whether an operation may proceed. While open it
// self-arms half-open after probeEvery when the backend has no Ping
// method (pingable backends are armed by their prober instead).
func (d *Domain) Gate(probeEvery time.Duration, pingable bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != farmem.BreakerOpen {
		return true
	}
	if !pingable && time.Since(d.openedAt) >= probeEvery {
		d.state = farmem.BreakerHalfOpen
		return true
	}
	return false
}

// OnSuccess records a successful operation; reports true when this
// success closed a half-open breaker (the backend recovered).
func (d *Domain) OnSuccess() (recovered bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.consec = 0
	if d.state == farmem.BreakerClosed {
		return false
	}
	d.state = farmem.BreakerClosed
	return true
}

// OnFailure records a failed operation; reports true when this failure
// tripped the breaker open (a half-open trial failure re-opens without
// re-reporting).
func (d *Domain) OnFailure(threshold int) (tripped bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.consec++
	switch d.state {
	case farmem.BreakerHalfOpen:
		d.state = farmem.BreakerOpen
		d.openedAt = time.Now()
	case farmem.BreakerClosed:
		if threshold > 0 && d.consec >= threshold {
			d.state = farmem.BreakerOpen
			d.openedAt = time.Now()
			return true
		}
	}
	return false
}

// State returns the current breaker state.
func (d *Domain) State() farmem.BreakerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// TryProbe claims the probe slot when the domain is open and no probe
// is already running; the claimant must call ProbeDone afterwards.
func (d *Domain) TryProbe() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state != farmem.BreakerOpen || d.probing {
		return false
	}
	d.probing = true
	return true
}

// ProbeDone releases the probe slot claimed by TryProbe with the ping's
// outcome: an answer moves open -> half-open, so the next operation is
// the recovery trial.
func (d *Domain) ProbeDone(err error) {
	d.mu.Lock()
	d.probing = false
	if err == nil && d.state == farmem.BreakerOpen {
		d.state = farmem.BreakerHalfOpen
	}
	d.mu.Unlock()
}
