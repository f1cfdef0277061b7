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
	objects map[uint64]bool // keys ever written, for the objects gauge

	reads, writes, bytesIn, bytesOut *stats.Counter
	degraded                         *stats.Counter
	objGauge                         *stats.Gauge
}

// ShardedStore multiplexes farmem store traffic across N backends using
// rendezvous placement (see Map). It implements farmem.Store,
// farmem.AsyncStore, farmem.WireReadStore, farmem.AsyncWriteStore,
// farmem.RangeWriteStore, farmem.AsyncChaseStore, farmem.Pinger,
// farmem.Recoverable and farmem.DrainScoper.
//
// Fault domains are per shard (see Fleet): operations against a tripped
// shard fail fast with an error wrapping farmem.ErrDegraded while the
// other shards keep serving.
type ShardedStore struct {
	*Fleet
	shards []*shard
}

// NewSharded builds a ShardedStore over the given backends, which may
// differ in their surfaces (see Backend.Caps).
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
			objects:  make(map[uint64]bool),
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

// op is one operation as its shard settles it: verb names it in a
// failure; a success counts n bytes, a chase its path's (res), as a read
// or as a write of object (ds, idx).
type op struct {
	verb       string
	write      bool
	ds, idx, n int
	res        *rdma.ChaseResult
}

// gate lets an op onto shard i or, while its breaker refuses traffic,
// fails it fast wrapping farmem.ErrDegraded: a contained shard outage,
// which the runtime neither retries nor holds against its breaker.
func (ss *ShardedStore) gate(i int) (*shard, error) {
	s := ss.shards[i]
	if !s.Breaker.Gate() {
		s.degraded.Inc()
		return nil, fmt.Errorf("shardmap: shard %d: %w", i, farmem.ErrDegraded)
	}
	return s, nil
}

// settle closes an op the gate let through: its outcome feeds the
// shard's breaker, a failure comes back naming the shard and verb, and a
// success is counted.
func (s *shard) settle(o op, err error) error {
	if err != nil {
		s.Fail()
		return fmt.Errorf("shardmap: shard %s %s: %w", s.Label, o.verb, err)
	}
	s.OK()
	if o.res != nil {
		for _, h := range o.res.Hops {
			o.n += len(h.Data)
		}
	}
	if !o.write {
		s.reads.Inc()
		s.bytesIn.Add(uint64(o.n))
		return nil
	}
	s.writes.Inc()
	s.bytesOut.Add(uint64(o.n))
	s.mu.Lock()
	if k := ObjKey(o.ds, o.idx); !s.objects[k] {
		s.objects[k] = true
		s.objGauge.Add(1)
	}
	s.mu.Unlock()
	return nil
}

// route is the one gated route of an issued op onto shard i: gate, then
// fwd hands the op to the shard with a completion that settles and
// counts it before done sees the outcome. The sync verbs gate and settle
// around a direct call instead, allocating nothing.
func (ss *ShardedStore) route(i int, o op, done func(error), fwd func(s *shard, fin func(error))) {
	s, err := ss.gate(i)
	if err != nil {
		done(err)
		return
	}
	fwd(s, func(err error) { done(s.settle(o, err)) })
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
	s, err := ss.gate(ss.ShardOf(ds, idx))
	if err != nil {
		return err
	}
	return s.settle(op{verb: "read", n: len(dst)}, s.Store.ReadObj(ds, idx, dst))
}

// WriteObj implements farmem.Store, routing to the owning shard.
func (ss *ShardedStore) WriteObj(ds, idx int, src []byte) error {
	s, err := ss.gate(ss.ShardOf(ds, idx))
	if err != nil {
		return err
	}
	return s.settle(op{verb: "write", write: true, ds: ds, idx: idx, n: len(src)}, s.Store.WriteObj(ds, idx, src))
}

// IssueRead implements farmem.AsyncStore. Each shard has its own
// pipelined connection, so a prefetch batch that spans shards rides N
// doorbells in parallel; a shard without async reads serves it inline.
func (ss *ShardedStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	ss.IssueReadWire(ds, idx, dst, nil, done)
}

// IssueReadWire implements farmem.WireReadStore on the same route as
// IssueRead: a shard without the surface decodes the reply (and leaves
// *blk alone). A nil blk is IssueRead.
func (ss *ShardedStore) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	ss.route(ss.ShardOf(ds, idx), op{verb: "read", n: len(dst)}, done, func(s *shard, fin func(error)) {
		switch {
		case blk != nil && s.Caps.WireRead != nil:
			s.Caps.WireRead.IssueReadWire(ds, idx, dst, blk, fin)
		case s.Caps.Async != nil:
			s.Caps.Async.IssueRead(ds, idx, dst, fin)
		default:
			fin(s.Store.ReadObj(ds, idx, dst))
		}
	})
}

// IssueWrite implements farmem.AsyncWriteStore: a range write with no
// extents.
func (ss *ShardedStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	ss.IssueWriteRanges(ds, idx, src, nil, done)
}

// IssueWriteRanges implements farmem.RangeWriteStore on the owner's
// write window; a tripped shard fails fast, and the runtime parks the
// write until its recovery epoch. Without extents the full object is
// written. A backend without the range verb gets the extents spliced
// onto the image read back from it (src is valid only inside them),
// written whole; one without async writes serves the write inline.
func (ss *ShardedStore) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	i := ss.ShardOf(ds, idx)
	o := op{verb: "write", write: true, ds: ds, idx: idx, n: len(src)}
	if exts != nil && ss.shards[i].Caps.RangeWrite != nil {
		o.verb, o.n = "range write", 0
		for _, e := range exts {
			o.n += int(e.Len)
		}
	}
	ss.route(i, o, done, func(s *shard, fin func(error)) {
		switch {
		case exts != nil && s.Caps.RangeWrite != nil:
			s.Caps.RangeWrite.IssueWriteRanges(ds, idx, src, exts, fin)
			return
		case exts != nil:
			full := make([]byte, len(src))
			if err := s.Store.ReadObj(ds, idx, full); err != nil {
				fin(err)
				return
			}
			for _, e := range exts {
				copy(full[e.Off:e.Off+e.Len], src[e.Off:])
			}
			src = full
		}
		if s.Caps.AsyncWrite != nil {
			s.Caps.AsyncWrite.IssueWrite(ds, idx, src, fin)
		} else {
			fin(s.Store.WriteObj(ds, idx, src))
		}
	})
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
	err = Wait(func(done func(error)) {
		ss.IssueChase(req, func(r rdma.ChaseResult, err error) { res = r; done(err) })
	})
	return res, err
}

// IssueChase implements farmem.AsyncChaseStore, routing the whole
// program to the single shard it may run on (see Fleet.ChaseGroup) and
// riding that shard's own pipelined chase window — the path's bytes
// count as one read.
func (ss *ShardedStore) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	g, err := ss.ChaseGroup(int(req.DS), 0)
	if err == nil && ss.shards[g[0]].Caps.Chase == nil {
		err = fmt.Errorf("shardmap: shard %d does not speak the chase verbs", g[0])
	}
	if err != nil {
		done(rdma.ChaseResult{}, err)
		return
	}
	res := new(rdma.ChaseResult)
	ss.route(g[0], op{verb: "chase", res: res}, func(err error) { done(*res, err) }, func(s *shard, fin func(error)) {
		s.Caps.Chase.IssueChase(req, func(r rdma.ChaseResult, err error) { *res = r; fin(err) })
	})
}
