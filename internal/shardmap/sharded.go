package shardmap

import (
	"fmt"
	"sync"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/stats"
)

// Per-shard metric names (label shard="<i>"), following the
// cards_<layer>_<name> scheme.
const (
	MetricShardReads      = "cards_shard_reads_total"
	MetricShardWrites     = "cards_shard_writes_total"
	MetricShardBytesIn    = "cards_shard_bytes_in_total"
	MetricShardBytesOut   = "cards_shard_bytes_out_total"
	MetricShardFailures   = "cards_shard_failures_total"
	MetricShardDegraded   = "cards_shard_degraded_ops_total"
	MetricShardTrips      = "cards_shard_breaker_trips_total"
	MetricShardRecoveries = "cards_shard_breaker_recoveries_total"
	MetricShardObjects    = "cards_shard_objects"
	MetricShardState      = "cards_shard_breaker_state"
)

// Options configures a ShardedStore.
type Options struct {
	// BreakerThreshold is the number of consecutive failures that trip
	// one shard's breaker open (independent of the other shards).
	// 0 disables per-shard breakers: every failure propagates raw.
	BreakerThreshold int
	// ProbeEvery is the wall-clock interval between liveness probes of
	// open shards; 0 means 250ms.
	ProbeEvery time.Duration
	// Obs receives the per-shard series; nil allocates a private
	// registry (reachable via Obs).
	Obs *obs.Registry
}

// shard is one fleet backend plus the traffic series only the sharded
// store keeps.
type shard struct {
	*Backend

	mu      sync.Mutex
	objects map[uint64]struct{} // keys ever written, for the objects gauge

	reads, writes, bytesIn, bytesOut *stats.Counter
	degraded                         *stats.Counter
	objGauge                         *stats.Gauge
}

// ShardedStore multiplexes farmem store traffic across N backends using
// rendezvous placement (see Map). It implements farmem.Store,
// farmem.AsyncStore, farmem.AsyncWriteStore, farmem.RangeWriteStore,
// farmem.AsyncChaseStore, farmem.Pinger, farmem.Recoverable and
// farmem.DrainScoper.
//
// Fault domains are per shard (see Fleet): operations against a tripped
// shard fail fast with an error wrapping farmem.ErrDegraded while the
// other shards keep serving.
type ShardedStore struct {
	*Fleet
	shards []*shard
}

// NewSharded builds a ShardedStore over the given backends. Async issue
// (farmem.AsyncStore) and liveness probing (farmem.Pinger) are detected
// per backend by type assertion, so heterogeneous fleets work — a shard
// without IssueRead just serves prefetches synchronously.
func NewSharded(backends []farmem.Store, opts Options) (*ShardedStore, error) {
	f, err := NewFleet(backends, 1, opts.BreakerThreshold, opts.ProbeEvery, opts.Obs, Series{
		Pkg: "shardmap", Label: "shard", Failures: MetricShardFailures,
		Trips: MetricShardTrips, Recoveries: MetricShardRecoveries, State: MetricShardState,
	})
	if err != nil {
		return nil, err
	}
	ss, reg := &ShardedStore{Fleet: f}, f.Obs()
	for _, b := range f.Backends() {
		ss.shards = append(ss.shards, &shard{
			Backend:  b,
			objects:  make(map[uint64]struct{}),
			reads:    reg.Counter(MetricShardReads, "shard", b.Label),
			writes:   reg.Counter(MetricShardWrites, "shard", b.Label),
			bytesIn:  reg.Counter(MetricShardBytesIn, "shard", b.Label),
			bytesOut: reg.Counter(MetricShardBytesOut, "shard", b.Label),
			degraded: reg.Counter(MetricShardDegraded, "shard", b.Label),
			objGauge: reg.Gauge(MetricShardObjects, "shard", b.Label),
		})
	}
	f.Start(nil)
	return ss, nil
}

// ShardState reports one shard's breaker state.
func (ss *ShardedStore) ShardState(i int) farmem.BreakerState {
	return ss.shards[i].Breaker.State()
}

// enter is the one gated route onto shard i: the shard to forward to,
// or, while its breaker refuses traffic, the fail-fast error. That error
// wraps farmem.ErrDegraded so the runtime can tell a contained shard
// outage from a transport failure (no retries, no global breaker
// accounting).
func (ss *ShardedStore) enter(i int) (*shard, error) {
	s := ss.shards[i]
	if !s.Breaker.Gate() {
		s.degraded.Inc()
		return nil, fmt.Errorf("shardmap: shard %d: %w", i, farmem.ErrDegraded)
	}
	return s, nil
}

// settle closes an operation enter let through: its outcome feeds the
// shard's breaker, and a failure comes back naming the shard and verb.
func (ss *ShardedStore) settle(i int, verb string, err error) error {
	if err != nil {
		ss.shards[i].Fail()
		return fmt.Errorf("shardmap: shard %d %s: %w", i, verb, err)
	}
	ss.shards[i].OK()
	return nil
}

// ShouldDrain implements farmem.DrainScoper: after observing a
// recovery-epoch advance past sinceEpoch, the runtime drains only
// objects whose owning shard recovered in that window and is serving
// again — not every dirty object in the cache.
func (ss *ShardedStore) ShouldDrain(ds, idx int, sinceEpoch uint64) bool {
	s := ss.shards[ss.ShardOf(ds, idx)]
	return s.RecoveredSince(sinceEpoch) && s.Breaker.State() == farmem.BreakerClosed
}

// Stranded implements farmem.DrainScoper: the owning shard is still
// refusing traffic, so the object must stay pinned for a future
// recovery epoch rather than be drained now.
func (ss *ShardedStore) Stranded(ds, idx int) bool {
	return ss.shards[ss.ShardOf(ds, idx)].Breaker.State() != farmem.BreakerClosed
}

// ReadObj implements farmem.Store, routing to the owning shard.
func (ss *ShardedStore) ReadObj(ds, idx int, dst []byte) error {
	i := ss.ShardOf(ds, idx)
	s, err := ss.enter(i)
	if err == nil {
		if err = ss.settle(i, "read", s.Store.ReadObj(ds, idx, dst)); err == nil {
			s.didRead(len(dst))
		}
	}
	return err
}

// WriteObj implements farmem.Store, routing to the owning shard.
func (ss *ShardedStore) WriteObj(ds, idx int, src []byte) error {
	i := ss.ShardOf(ds, idx)
	s, err := ss.enter(i)
	if err == nil {
		if err = ss.settle(i, "write", s.Store.WriteObj(ds, idx, src)); err == nil {
			s.didWrite(ds, idx, len(src))
		}
	}
	return err
}

func (s *shard) didRead(n int) {
	s.reads.Inc()
	s.bytesIn.Add(uint64(n))
}

// didWrite counts one write of n bytes and maintains the
// objects-per-shard gauge (distinct keys ever written through this
// store).
func (s *shard) didWrite(ds, idx, n int) {
	s.writes.Inc()
	s.bytesOut.Add(uint64(n))
	key := ObjKey(ds, idx)
	s.mu.Lock()
	before := len(s.objects)
	s.objects[key] = struct{}{}
	grew := len(s.objects) != before
	s.mu.Unlock()
	if grew {
		s.objGauge.Add(1)
	}
}

// IssueRead implements farmem.AsyncStore. Reads fan out: each shard has
// its own pipelined connection, so a prefetch batch that spans shards
// rides N doorbells in parallel. A shard without async support serves
// the read synchronously before returning.
func (ss *ShardedStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	i := ss.ShardOf(ds, idx)
	s, err := ss.enter(i)
	if err != nil {
		done(err)
		return
	}
	finish := func(err error) {
		if err = ss.settle(i, "read", err); err == nil {
			s.didRead(len(dst))
		}
		done(err)
	}
	if s.Caps.Async != nil {
		s.Caps.Async.IssueRead(ds, idx, dst, finish)
		return
	}
	finish(s.Store.ReadObj(ds, idx, dst))
}

// IssueWrite implements farmem.AsyncWriteStore: a range write with no
// extents.
func (ss *ShardedStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	ss.IssueWriteRanges(ds, idx, src, nil, done)
}

// IssueWriteRanges implements farmem.RangeWriteStore, fanning staged
// write-backs out to each shard's own pipelined write window. A tripped
// shard fails fast — the runtime parks the staged payload until this
// shard's recovery epoch. Without extents the full object is written;
// a shard whose backend lacks the range verb splices the extents onto
// the image it reads back (src is valid only inside them) and writes
// that whole. A backend without async support serves its write
// synchronously before returning.
func (ss *ShardedStore) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	i := ss.ShardOf(ds, idx)
	s, err := ss.enter(i)
	if err != nil {
		done(err)
		return
	}
	if exts != nil && s.Caps.RangeWrite == nil {
		full := make([]byte, len(src))
		if err := s.Store.ReadObj(ds, idx, full); err != nil {
			done(ss.settle(i, "write", err))
			return
		}
		for _, e := range exts {
			copy(full[e.Off:e.Off+e.Len], src[e.Off:])
		}
		src, exts = full, nil
	}
	verb, shipped := "write", len(src)
	if exts != nil {
		verb, shipped = "range write", 0
		for _, e := range exts {
			shipped += int(e.Len)
		}
	}
	finish := func(err error) {
		if err = ss.settle(i, verb, err); err == nil {
			s.didWrite(ds, idx, shipped)
		}
		done(err)
	}
	switch {
	case exts != nil:
		s.Caps.RangeWrite.IssueWriteRanges(ds, idx, src, exts, finish)
	case s.Caps.AsyncWrite != nil:
		s.Caps.AsyncWrite.IssueWrite(ds, idx, src, finish)
	default:
		finish(s.Store.WriteObj(ds, idx, src))
	}
}

// ChaseCapable implements farmem.AsyncChaseStore. A traversal program walks
// entirely on one backend, so the sharded store only offers offload
// when every shard speaks the chase verbs on its live session — a
// structure's pinned owner is decided by placement, not capability, and
// flipping capability per shard would make offload behaviour depend on
// which shard a structure happened to hash to.
func (ss *ShardedStore) ChaseCapable() bool {
	for _, s := range ss.shards {
		if s.Caps.Chase == nil || !s.Caps.Chase.ChaseCapable() {
			return false
		}
	}
	return true
}

// Chase implements farmem.AsyncChaseStore: IssueChase, waited for.
func (ss *ShardedStore) Chase(req rdma.ChaseReq) (res rdma.ChaseResult, err error) {
	done := make(chan struct{})
	ss.IssueChase(req, func(r rdma.ChaseResult, e error) { res, err = r, e; close(done) })
	<-done
	return res, err
}

// IssueChase implements farmem.AsyncChaseStore, routing the whole
// program to the single shard it may run on (see Fleet.ChaseGroup) and
// riding that shard's own pipelined chase window: enter, forward,
// settle, like a read — the path's bytes count as one.
func (ss *ShardedStore) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	var s *shard
	g, err := ss.ChaseGroup(int(req.DS), 0)
	if err == nil && ss.shards[g[0]].Caps.Chase == nil {
		err = fmt.Errorf("shardmap: shard %d does not speak the chase verbs", g[0])
	}
	if err == nil {
		s, err = ss.enter(g[0])
	}
	if err != nil {
		done(rdma.ChaseResult{}, err)
		return
	}
	s.Caps.Chase.IssueChase(req, func(res rdma.ChaseResult, err error) {
		if err = ss.settle(g[0], "chase", err); err == nil {
			n := 0
			for _, h := range res.Hops {
				n += len(h.Data)
			}
			s.didRead(n)
		}
		done(res, err)
	})
}
