package shardmap

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/stats"
)

// Series names what one kind of fleet publishes per backend: the sharded
// and the replicated store keep the same accounting under the metric
// names each has always had.
type Series struct {
	Pkg   string // prefixes errors
	Label string // the label key that tells backends apart; also names one in errors
	// Per-backend series: failed operations, breaker trips and
	// recoveries (counters), breaker state (gauge, 0=closed 1=open
	// 2=half-open).
	Failures, Trips, Recoveries, State string
}

// Fleet is the part of a multi-backend far tier that does not depend on
// how objects are spread over it: rendezvous placement with a
// per-structure policy, one fault domain (breaker + pinger) per backend
// under one prober, the recovery epoch the runtime drains by, and the
// fleet's lifetime. ShardedStore (one owner per object) and
// replica.Store (a ranked group of r owners) embed it and add only
// their forwarding rule.
type Fleet struct {
	m        *Map
	r        int // owners per object
	backends []*Backend
	reg      *obs.Registry
	sr       Series

	policyMu sync.RWMutex
	policy   map[int]Policy

	recoveryEpoch atomic.Uint64

	prober    *farmem.Prober
	closeOnce sync.Once
}

// Backend is one member of a Fleet: its store, the optional surfaces the
// store has, and its private fault domain. One dead backend degrades
// exactly the keys it owns.
type Backend struct {
	Store   farmem.Store
	Caps    farmem.Surfaces // nil ones are served synchronously or refused
	Breaker *farmem.Breaker
	Label   string // the backend's index, as the metric label value

	f *Fleet
	// lastRecovery is the RecoveryEpoch value this backend's latest
	// recovery published — the drain-scoping cue that lets the runtime
	// drain only the recovering backend's stranded write-backs.
	lastRecovery atomic.Uint64

	failures, trips, recoveries *stats.Counter
	state                       *stats.Gauge
}

// NewFleet builds the fleet core over backends with r owners per object.
// threshold and probeEvery configure every backend's breaker (see
// farmem.NewBreaker); liveness probing is detected per backend by type
// assertion, so heterogeneous fleets work. A nil reg allocates a private
// registry (reachable via Obs). The caller starts the prober with Start
// once its own per-backend state exists.
func NewFleet(backends []farmem.Store, r, threshold int, probeEvery time.Duration, reg *obs.Registry, sr Series) (*Fleet, error) {
	if len(backends) == 0 {
		return nil, errors.New(sr.Pkg + ": no backends")
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Fleet{m: NewMap(len(backends)), r: r, reg: reg, sr: sr, policy: make(map[int]Policy)}
	for i, st := range backends {
		l := strconv.Itoa(i)
		caps := farmem.SurfacesOf(st)
		f.backends = append(f.backends, &Backend{
			Store:      st,
			Caps:       caps,
			Breaker:    farmem.NewBreaker(threshold, probeEvery, caps.Pinger),
			Label:      l,
			f:          f,
			failures:   reg.Counter(sr.Failures, sr.Label, l),
			trips:      reg.Counter(sr.Trips, sr.Label, l),
			recoveries: reg.Counter(sr.Recoveries, sr.Label, l),
			state:      reg.Gauge(sr.State, sr.Label, l),
		})
	}
	return f, nil
}

// Start launches the fleet's prober; see farmem.StartProber for tick.
func (f *Fleet) Start(tick func(*farmem.Prober)) {
	bs := make([]*farmem.Breaker, len(f.backends))
	for i, b := range f.backends {
		bs[i] = b.Breaker
	}
	f.prober = farmem.StartProber(bs, tick)
}

// Obs returns the registry the fleet's series are published into.
func (f *Fleet) Obs() *obs.Registry { return f.reg }

// Backends returns the fleet's members, indexed as placement numbers
// them.
func (f *Fleet) Backends() []*Backend { return f.backends }

// SetPolicy installs the placement rule for one data structure.
// Unconfigured structures stripe. Must be called before the structure's
// objects are written — changing the rule afterwards would strand them
// on their old backends.
func (f *Fleet) SetPolicy(ds int, p Policy) {
	f.policyMu.Lock()
	f.policy[ds] = p
	f.policyMu.Unlock()
}

func (f *Fleet) pinned(ds int) bool {
	f.policyMu.RLock()
	p := f.policy[ds]
	f.policyMu.RUnlock()
	return p == PolicyPin
}

// key is the placement key of one object: its structure's when the
// structure is pinned, its own otherwise.
func (f *Fleet) key(ds, idx int) uint64 {
	if f.pinned(ds) {
		return DSKey(ds)
	}
	return ObjKey(ds, idx)
}

// ShardOf returns the top-ranked owner of one object.
func (f *Fleet) ShardOf(ds, idx int) int { return f.m.Owner(f.key(ds, idx)) }

// GroupOf appends the r ranked owners of one object into dst; the first
// is ShardOf.
func (f *Fleet) GroupOf(ds, idx int, dst []int) []int { return f.m.Owners(f.key(ds, idx), f.r, dst) }

// ChaseGroup returns the ranked owners that may serve a traversal
// program over ds starting at object start. The walk follows pointers
// server-side, so every object of the structure must live on them: the
// structure is pinned, or the fleet is no larger than one group.
// Otherwise the successors live elsewhere and the serving backend would
// zero-fill them mid-walk, so the program is refused.
func (f *Fleet) ChaseGroup(ds, start int) ([]int, error) {
	if !f.pinned(ds) && len(f.backends) > f.r {
		return nil, fmt.Errorf("%s: chase on striped ds%d (traversal programs need a pinned structure)", f.sr.Pkg, ds)
	}
	return f.GroupOf(ds, start, nil), nil
}

// RecoveryEpoch implements farmem.Recoverable: it advances once per
// backend recovery (half-open trial success), signalling the runtime to
// drain write-backs stranded while that backend was down.
func (f *Fleet) RecoveryEpoch() uint64 { return f.recoveryEpoch.Load() }

// RecoveredSince reports whether the backend's latest recovery was
// published after epoch since.
func (b *Backend) RecoveredSince(since uint64) bool { return b.lastRecovery.Load() > since }

// OK feeds one successful operation to the backend's breaker. A success
// that closes the breaker advances the fleet's recovery epoch, stamping
// the backend with the new value before publishing it: a reader that
// observes epoch e finds the stamp of the backend whose recovery made
// it e already in place.
func (b *Backend) OK() {
	if b.Breaker.OnSuccess() {
		b.recoveries.Inc()
		ep := &b.f.recoveryEpoch
		for {
			e := ep.Load()
			b.lastRecovery.Store(e + 1)
			if ep.CompareAndSwap(e, e+1) {
				break
			}
		}
	}
	b.state.Set(int64(farmem.BreakerClosed))
}

// Fail feeds one failed operation to the backend's breaker.
func (b *Backend) Fail() {
	b.failures.Inc()
	if b.Breaker.OnFailure() {
		b.trips.Inc()
	}
	b.state.Set(int64(b.Breaker.State()))
}

// Ping implements farmem.Pinger at fleet scope, a health check: it
// pings every backend and succeeds while at least one answers. Partial
// outages are the per-backend breakers' job; the runtime arms no
// breaker over a fleet. A backend without a Ping method counts as
// alive.
func (f *Fleet) Ping() error {
	var firstErr error
	alive := false
	for i, b := range f.backends {
		var err error
		if b.Caps.Pinger != nil {
			err = b.Caps.Pinger.Ping()
		}
		if err == nil {
			alive = true
		} else if firstErr == nil {
			firstErr = fmt.Errorf("%s: %s %d ping: %w", f.sr.Pkg, f.sr.Label, i, err)
		}
	}
	if alive {
		return nil
	}
	return firstErr
}

// Wait is a fleet's sync verb as its issue, waited for: issue hands done
// to an asynchronous verb, which calls it exactly once.
func Wait(issue func(done func(error))) error {
	ch := make(chan error, 1)
	issue(func(err error) { ch <- err })
	return <-ch
}

// Close stops the prober, waiting out any ping (and anything else its
// tick started), then closes every backend that implements io.Closer,
// returning the first error.
func (f *Fleet) Close() error {
	var err error
	f.closeOnce.Do(func() {
		f.prober.Close()
		for _, b := range f.backends {
			if c, ok := b.Store.(io.Closer); ok {
				if cerr := c.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	})
	return err
}
