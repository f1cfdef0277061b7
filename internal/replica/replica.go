// Package replica layers a replicated far tier between the farmem
// runtime and a fleet of remote backends: every object lives on a
// replica group of R backends chosen by rendezvous ranking (the top-R
// owners from the same placement map the sharded store uses, so
// rank 0 is exactly the shard the object would live on unreplicated).
//
// Writes fan out to every reachable group member through the pipelined
// epoch-stamped write verbs and acknowledge once W replicas accepted;
// each image carries a monotonically increasing epoch assigned here
// (the runtime above is the single writer per object, so a plain
// per-object counter is a total order). Reads go to the highest-ranked
// in-sync member and fail over down the ranking — the epoch stamp on
// the reply proves the image is current, so a replica that missed
// writes is detected and excluded rather than trusted.
//
// When a member's breaker opens, the next-ranked member takes over
// mid-op: the failed read's completion callback reissues it down the
// ranking, so in-flight dereferences complete instead of surfacing
// ErrDegraded. A member that missed writes (skipped while gated, or a
// failed/uncertain sub-write) is marked divergent and leaves the read
// set; when its backend answers pings again, an anti-entropy sweep
// compares its epoch stamps against the client-side authority and
// re-copies stale objects from an in-sync survivor — only after the
// sweep completes with no new divergence does it rejoin the read set.
package replica

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
	"cards/internal/rdma"
	"cards/internal/shardmap"
	"cards/internal/stats"
)

// MaxReplicas bounds the replica group size R; the fixed-size scratch
// arrays in the pooled read/write joins (what keeps the hot paths
// allocation-free) are sized by it.
const MaxReplicas = 4

// Per-backend metric names (label backend="<i>") plus group-wide
// series, following the cards_<layer>_<name> scheme.
const (
	MetricReplicaReads       = "cards_replica_reads_total"
	MetricReplicaWrites      = "cards_replica_writes_total"
	MetricReplicaFailures    = "cards_replica_failures_total"
	MetricReplicaTrips       = "cards_replica_breaker_trips_total"
	MetricReplicaRecoveries  = "cards_replica_breaker_recoveries_total"
	MetricReplicaState       = "cards_replica_breaker_state"
	MetricReplicaInSync      = "cards_replica_in_sync"
	MetricReplicaDivergences = "cards_replica_divergences_total"
	MetricReplicaResyncs     = "cards_replica_resyncs_total"

	MetricReplicaFailovers      = "cards_replica_failovers_total"
	MetricReplicaQuorumFailures = "cards_replica_quorum_failures_total"
	MetricReplicaResyncedObjs   = "cards_replica_resynced_objects_total"
	MetricReplicaResyncSkipped  = "cards_replica_resync_skipped_total"

	// MetricChaseFailovers counts traversal-offload programs rerouted to
	// a lower-ranked in-sync replica after the serving member failed
	// mid-chase (part of the cards_chase_* family the runtime publishes;
	// the failover count lives here because only the replica layer can
	// reroute).
	MetricChaseFailovers = "cards_chase_failovers_total"
)

// EpochBackend is what each backend must provide: the plain store
// surface plus the epoch-stamped verbs (remote.PipelinedClient
// satisfies it).
type EpochBackend interface {
	farmem.Store
	ReadObjEpoch(ds, idx int, dst []byte) (uint64, error)
	WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error
	IssueReadEpoch(ds, idx int, dst []byte, done func(epoch uint64, err error))
	IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error))
}

// RangeEpochBackend is the optional dirty-range surface of a backend:
// an epoch-stamped write that ships only the modified extents of the
// full image src. The peer splices them onto its stored copy only when
// that copy is the immediate predecessor epoch; a missed epoch NAKs
// with remote.ErrStaleRangeBase, which the fan-out treats like any
// failed sub-write (mark divergent, resync repairs with full objects).
// Detected per backend by type assertion.
type RangeEpochBackend interface {
	IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error))
}

// Options configures a replicated Store.
type Options struct {
	// Replicas is the group size R (clamped to [1, min(MaxReplicas,
	// len(backends))]); 2 when zero.
	Replicas int
	// WriteQuorum is W, the number of replica acks a write needs to
	// succeed; 1 when zero. W=1 lets writes ride out any R-1 failures
	// (the epoch read path finds the surviving current image); W=R
	// makes every ack mean full redundancy at the cost of parking
	// writes while any group member is down.
	WriteQuorum int
	// BreakerThreshold is the number of consecutive failures that trip
	// one member's breaker open. 0 disables per-member breakers.
	BreakerThreshold int
	// ProbeEvery is the wall-clock interval of the liveness/resync
	// maintenance loop; 0 means 250ms.
	ProbeEvery time.Duration
	// Obs receives the replica series; nil allocates a private registry
	// (reachable via Store.Obs).
	Obs *obs.Registry
	// Trace, when non-nil, receives a flight-recorder record for every
	// read that needed failover (Failover=true, Shard=the backend that
	// finally served it).
	Trace *obs.TraceHub
}

// member is one backend plus its private fault domain (the same
// breaker/probe state machine the sharded store runs per shard) and
// its replication state: whether it is in the read set, and a
// divergence generation that invalidates an in-flight resync when the
// member misses further writes mid-sweep.
type member struct {
	eb     EpochBackend
	reb    RangeEpochBackend      // non-nil iff the backend supports range-epoch writes
	chaser farmem.AsyncChaseStore // non-nil iff the backend supports IssueChase
	pinger farmem.Pinger          // non-nil iff the backend supports Ping
	label  string

	dom shardmap.Domain

	inSync     atomic.Bool
	divergeGen atomic.Uint64
	resyncing  atomic.Bool

	// lastRecovery is the RecoveryEpoch value stamped when this member
	// last recovered; see Store.ShouldDrain.
	lastRecovery atomic.Uint64

	reads, writes, failures *stats.Counter
	trips, recoveries       *stats.Counter
	divergences, resyncs    *stats.Counter
	stateGauge, insyncGauge *stats.Gauge
}

func (m *member) gate(probeEvery time.Duration) bool {
	return m.dom.Gate(probeEvery, m.pinger != nil)
}

// objMeta is the client-side authority record for one object: the
// epoch its current image carries and the image size (what a resync
// needs to re-read it from a survivor).
type objMeta struct {
	epoch uint64
	size  uint32
}

// Store is the replicated far tier. It implements farmem.Store,
// farmem.AsyncStore, farmem.AsyncWriteStore, farmem.Pinger,
// farmem.Recoverable and farmem.DrainScoper.
type Store struct {
	m       *shardmap.Map
	members []*member
	r, w    int
	opts    Options
	reg     *obs.Registry
	hub     *obs.TraceHub

	policyMu sync.RWMutex
	policy   map[int]shardmap.Policy

	// epochs is the per-object epoch authority and resync inventory:
	// the runtime above is the single writer per object, so the counter
	// assigned here is the total order every replica's image is ranked
	// by.
	epMu   sync.Mutex
	epochs map[uint64]objMeta

	failovers, quorumFailures   *stats.Counter
	resyncedObjs, resyncSkipped *stats.Counter
	chaseFailovers              *stats.Counter

	recoveryEpoch atomic.Uint64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a replicated Store over the given backends. Every backend
// must speak the epoch-stamped verbs (EpochBackend); liveness probing
// is detected per backend by type assertion.
func New(backends []farmem.Store, opts Options) (*Store, error) {
	if len(backends) == 0 {
		return nil, errors.New("replica: no backends")
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.Replicas > MaxReplicas {
		opts.Replicas = MaxReplicas
	}
	if opts.Replicas > len(backends) {
		opts.Replicas = len(backends)
	}
	if opts.WriteQuorum <= 0 {
		opts.WriteQuorum = 1
	}
	if opts.WriteQuorum > opts.Replicas {
		opts.WriteQuorum = opts.Replicas
	}
	if opts.ProbeEvery <= 0 {
		opts.ProbeEvery = 250 * time.Millisecond
	}
	reg := opts.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Store{
		m:              shardmap.NewMap(len(backends)),
		r:              opts.Replicas,
		w:              opts.WriteQuorum,
		opts:           opts,
		reg:            reg,
		hub:            opts.Trace,
		policy:         make(map[int]shardmap.Policy),
		epochs:         make(map[uint64]objMeta),
		failovers:      reg.Counter(MetricReplicaFailovers),
		quorumFailures: reg.Counter(MetricReplicaQuorumFailures),
		resyncedObjs:   reg.Counter(MetricReplicaResyncedObjs),
		resyncSkipped:  reg.Counter(MetricReplicaResyncSkipped),
		chaseFailovers: reg.Counter(MetricChaseFailovers),
		stop:           make(chan struct{}),
	}
	for i, b := range backends {
		eb, ok := b.(EpochBackend)
		if !ok {
			return nil, fmt.Errorf("replica: backend %d does not speak the epoch verbs", i)
		}
		l := strconv.Itoa(i)
		m := &member{
			eb:          eb,
			label:       l,
			reads:       reg.Counter(MetricReplicaReads, "backend", l),
			writes:      reg.Counter(MetricReplicaWrites, "backend", l),
			failures:    reg.Counter(MetricReplicaFailures, "backend", l),
			trips:       reg.Counter(MetricReplicaTrips, "backend", l),
			recoveries:  reg.Counter(MetricReplicaRecoveries, "backend", l),
			divergences: reg.Counter(MetricReplicaDivergences, "backend", l),
			resyncs:     reg.Counter(MetricReplicaResyncs, "backend", l),
			stateGauge:  reg.Gauge(MetricReplicaState, "backend", l),
			insyncGauge: reg.Gauge(MetricReplicaInSync, "backend", l),
		}
		caps := farmem.SurfacesOf(b)
		m.chaser, m.pinger = caps.Chase, caps.Pinger
		m.reb, _ = b.(RangeEpochBackend)
		m.inSync.Store(true)
		m.insyncGauge.Set(1)
		s.members = append(s.members, m)
	}
	s.wg.Add(1)
	go s.maintLoop()
	return s, nil
}

// Obs returns the registry the replica series are published into.
func (s *Store) Obs() *obs.Registry { return s.reg }

// NumBackends returns the number of backends.
func (s *Store) NumBackends() int { return len(s.members) }

// Replicas returns the group size R.
func (s *Store) Replicas() int { return s.r }

// MemberState reports one backend's breaker state.
func (s *Store) MemberState(i int) farmem.BreakerState { return s.members[i].dom.State() }

// MemberInSync reports whether one backend is currently in the read
// set.
func (s *Store) MemberInSync(i int) bool { return s.members[i].inSync.Load() }

// SetPolicy installs the placement rule for one data structure (the
// same pin/stripe semantics as the sharded store, applied to the whole
// replica group). Must be called before the structure's objects are
// written.
func (s *Store) SetPolicy(ds int, p shardmap.Policy) {
	s.policyMu.Lock()
	s.policy[ds] = p
	s.policyMu.Unlock()
}

// GroupOf appends the replica group (ranked backend indices) for one
// object into dst.
func (s *Store) GroupOf(ds, idx int, dst []int) []int {
	return s.groupFor(ds, idx, dst)
}

func (s *Store) groupFor(ds, idx int, dst []int) []int {
	s.policyMu.RLock()
	p := s.policy[ds]
	s.policyMu.RUnlock()
	if p == shardmap.PolicyPin {
		return s.m.OwnersDS(ds, s.r, dst)
	}
	return s.m.OwnersObj(ds, idx, s.r, dst)
}

// RecoveryEpoch implements farmem.Recoverable: it advances once per
// member breaker recovery, signalling the runtime to drain write-backs
// parked while the group could not meet its write quorum.
func (s *Store) RecoveryEpoch() uint64 { return s.recoveryEpoch.Load() }

// ShouldDrain implements farmem.DrainScoper: a parked write-back is
// worth reissuing when some member of the object's group recovered
// after sinceEpoch and enough members are reachable to meet the write
// quorum.
func (s *Store) ShouldDrain(ds, idx int, sinceEpoch uint64) bool {
	var gbuf [MaxReplicas]int
	group := s.groupFor(ds, idx, gbuf[:0])
	recovered, avail := false, 0
	for _, gi := range group {
		m := s.members[gi]
		if m.dom.State() != farmem.BreakerOpen {
			avail++
		}
		if m.lastRecovery.Load() > sinceEpoch {
			recovered = true
		}
	}
	return recovered && avail >= s.w
}

// Stranded implements farmem.DrainScoper: the object's group cannot
// currently meet the write quorum, so its write-back must stay parked.
func (s *Store) Stranded(ds, idx int) bool {
	var gbuf [MaxReplicas]int
	group := s.groupFor(ds, idx, gbuf[:0])
	avail := 0
	for _, gi := range group {
		if s.members[gi].dom.State() != farmem.BreakerOpen {
			avail++
		}
	}
	return avail < s.w
}

func objKey(ds, idx int) uint64 { return uint64(ds)<<32 | uint64(uint32(idx)) }

// stampWrite assigns the next epoch for one object and records the
// image size for the resync inventory.
func (s *Store) stampWrite(ds, idx, size int) uint64 {
	k := objKey(ds, idx)
	s.epMu.Lock()
	meta := s.epochs[k]
	meta.epoch++
	meta.size = uint32(size)
	s.epochs[k] = meta
	s.epMu.Unlock()
	return meta.epoch
}

// authority returns the epoch the object's current image must carry
// (0 when the object was never written through this store — any image
// is acceptable then).
func (s *Store) authority(ds, idx int) uint64 {
	s.epMu.Lock()
	e := s.epochs[objKey(ds, idx)].epoch
	s.epMu.Unlock()
	return e
}

func (s *Store) ok(m *member) {
	if m.dom.OnSuccess() {
		m.recoveries.Inc()
		// Stamp before publishing the advance so ShouldDrain sees the
		// recovered member as soon as the runtime sees the new epoch.
		m.lastRecovery.Store(s.recoveryEpoch.Load() + 1)
		s.recoveryEpoch.Add(1)
	}
	m.stateGauge.Set(int64(farmem.BreakerClosed))
}

func (s *Store) fail(m *member) {
	m.failures.Inc()
	if m.dom.OnFailure(s.opts.BreakerThreshold) {
		m.trips.Inc()
	}
	m.stateGauge.Set(int64(m.dom.State()))
}

// markDivergent takes a member out of the read set: it missed (or may
// have missed — an uncertain sub-write counts) an epoch it should
// hold. The generation bump invalidates any resync sweep in flight.
func (s *Store) markDivergent(m *member) {
	m.divergeGen.Add(1)
	if m.inSync.CompareAndSwap(true, false) {
		m.divergences.Inc()
		m.insyncGauge.Set(0)
	}
}

// writeJoin aggregates one replicated write's sub-write completions.
// The slots' callbacks are bound once at pool-insertion time, so the
// steady-state write path allocates nothing.
type writeJoin struct {
	s         *Store
	remaining atomic.Int32
	acks      atomic.Int32
	issued    int32
	done      func(error)
	group     [MaxReplicas]int
	slots     [MaxReplicas]writeSlot
}

type writeSlot struct {
	j  *writeJoin
	m  *member
	fn func(error)
}

var writeJoinPool sync.Pool

// The pools' New hooks reference methods that in turn recycle into the
// pools, so they are bound in init to break the initialization cycle.
func init() {
	writeJoinPool.New = func() any {
		j := &writeJoin{}
		for i := range j.slots {
			sl := &j.slots[i]
			sl.j = j
			sl.fn = func(err error) { sl.j.subDone(sl, err) }
		}
		return j
	}
	readJoinPool.New = func() any {
		j := &readJoin{}
		j.fn = func(epoch uint64, err error) { j.complete(epoch, err) }
		return j
	}
}

func (j *writeJoin) subDone(sl *writeSlot, err error) {
	s := j.s
	if err == nil {
		j.acks.Add(1)
		s.ok(sl.m)
		sl.m.writes.Inc()
	} else {
		// Failed or uncertain: the member may not hold this epoch.
		s.fail(sl.m)
		s.markDivergent(sl.m)
	}
	if j.remaining.Add(-1) == 0 {
		j.finish()
	}
}

// finish runs after every issued sub-write completed — only then is
// the caller's src buffer free to recycle (the IssueWrite contract).
func (j *writeJoin) finish() {
	s, done := j.s, j.done
	acks, issued := int(j.acks.Load()), int(j.issued)
	j.done = nil
	for i := range j.slots {
		j.slots[i].m = nil
	}
	writeJoinPool.Put(j)
	switch {
	case acks >= s.w:
		done(nil)
	case issued < s.w:
		// Not enough reachable members to ever meet quorum: a contained
		// group outage — park, don't retry.
		s.quorumFailures.Inc()
		done(fmt.Errorf("replica: write quorum %d unreachable (%d live): %w", s.w, issued, farmem.ErrDegraded))
	default:
		// Enough members were up but too few acked: transport trouble,
		// worth a retry (the reissue re-stamps a fresh epoch).
		s.quorumFailures.Inc()
		done(fmt.Errorf("replica: write acked by %d of %d required replicas", acks, s.w))
	}
}

// IssueWrite implements farmem.AsyncWriteStore: a range write with no
// extents.
func (s *Store) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.IssueWriteRanges(ds, idx, src, nil, done)
}

// IssueWriteRanges implements farmem.RangeWriteStore: stamp the next
// epoch, fan the image out to every reachable group member, and
// complete once all sub-writes finished — with success iff at least W
// acked. Members skipped while gated are marked divergent (they will
// miss this epoch); the resync sweep brings them back. With extents,
// each member that speaks the range-epoch verb receives only those (the
// rest get the full image). A member whose base image missed an epoch
// NAKs the splice with remote.ErrStaleRangeBase; subDone then marks it
// divergent exactly like a failed full write, and the anti-entropy
// resync repairs it with whole objects — range writes can therefore
// never wedge a replica in a silently-diverged state.
func (s *Store) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	j := writeJoinPool.Get().(*writeJoin)
	j.s = s
	j.done = done
	j.acks.Store(0)
	group := s.groupFor(ds, idx, j.group[:0])
	epoch := s.stampWrite(ds, idx, len(src))
	n := 0
	for _, gi := range group {
		m := s.members[gi]
		if !m.gate(s.opts.ProbeEvery) {
			s.markDivergent(m)
			continue
		}
		j.slots[n].m = m
		n++
	}
	j.issued = int32(n)
	if n == 0 {
		j.finish() // nowhere to issue: the quorum is unreachable
		return
	}
	j.remaining.Store(int32(n))
	for i := 0; i < n; i++ {
		m := j.slots[i].m
		if exts != nil && m.reb != nil {
			m.reb.IssueWriteRangesEpoch(ds, idx, epoch, src, exts, j.slots[i].fn)
		} else {
			m.eb.IssueWriteEpoch(ds, idx, epoch, src, j.slots[i].fn)
		}
	}
}

// WriteObj implements farmem.Store (issue + wait).
func (s *Store) WriteObj(ds, idx int, src []byte) error {
	ch := make(chan error, 1)
	s.IssueWrite(ds, idx, src, func(err error) { ch <- err })
	return <-ch
}

// readJoin walks one read down the replica ranking. Bound once per
// pooled instance, like writeJoin.
type readJoin struct {
	s        *Store
	ds, idx  int
	dst      []byte
	want     uint64
	group    [MaxReplicas]int
	glen     int
	next     int
	loose    bool
	attempts int
	start    time.Time
	cur      *member
	done     func(error)
	fn       func(uint64, error)
}

var readJoinPool sync.Pool

// IssueRead implements farmem.AsyncStore: read from the highest-ranked
// in-sync reachable member; on transport failure or a stale epoch
// stamp, fail over down the ranking — promotion of the next-ranked
// replica without dropping the in-flight op.
func (s *Store) IssueRead(ds, idx int, dst []byte, done func(error)) {
	j := readJoinPool.Get().(*readJoin)
	j.s, j.ds, j.idx, j.dst, j.done = s, ds, idx, dst, done
	j.next, j.loose, j.attempts, j.cur = 0, false, 0, nil
	group := s.groupFor(ds, idx, j.group[:0])
	j.glen = len(group)
	j.want = s.authority(ds, idx)
	if s.hub != nil {
		j.start = time.Now()
	}
	j.tryNext()
}

// ReadObj implements farmem.Store (issue + wait).
func (s *Store) ReadObj(ds, idx int, dst []byte) error {
	ch := make(chan error, 1)
	s.IssueRead(ds, idx, dst, func(err error) { ch <- err })
	return <-ch
}

// tryNext issues the read against the next eligible member of the
// ranking. The strict pass takes only in-sync members; if none is
// reachable, a loose pass accepts any reachable member — the epoch
// check still rejects stale images, so correctness is unchanged and
// availability improves while every replica happens to be resyncing.
func (j *readJoin) tryNext() {
	s := j.s
	for {
		for j.next < j.glen {
			m := s.members[j.group[j.next]]
			j.next++
			if !m.gate(s.opts.ProbeEvery) {
				continue
			}
			if !j.loose && !m.inSync.Load() {
				continue
			}
			j.cur = m
			j.attempts++
			m.eb.IssueReadEpoch(j.ds, j.idx, j.dst, j.fn)
			return
		}
		if j.loose {
			break
		}
		j.loose = true
		j.next = 0
	}
	j.finish(fmt.Errorf("replica: no replica reachable for ds%d[%d]: %w", j.ds, j.idx, farmem.ErrDegraded))
}

func (j *readJoin) complete(epoch uint64, err error) {
	s := j.s
	m := j.cur
	if err != nil {
		s.fail(m)
		s.failovers.Inc()
		j.tryNext()
		return
	}
	if epoch < j.want {
		// The backend answered but its image misses epochs it should
		// hold (e.g. it restarted with stale state before resync
		// noticed): exclude it from reads and fail over.
		s.ok(m)
		s.markDivergent(m)
		s.failovers.Inc()
		j.tryNext()
		return
	}
	s.ok(m)
	m.reads.Inc()
	j.finish(nil)
}

func (j *readJoin) finish(err error) {
	s := j.s
	if s.hub != nil && j.attempts > 1 {
		label := ""
		if j.cur != nil {
			label = j.cur.label
		}
		el := time.Since(j.start)
		s.hub.Offer(obs.SlowOp{
			Op: "read", DS: j.ds, Idx: j.idx, Shard: label,
			Attempts: j.attempts, Failover: true,
			StartUS: uint64(j.start.UnixMicro()), TotalUS: uint64(el.Microseconds()),
		})
	}
	done := j.done
	j.done, j.dst, j.cur = nil, nil, nil
	readJoinPool.Put(j)
	done(err)
}

// Ping implements farmem.Pinger at group-fleet scope (see
// shardmap.PingAny).
func (s *Store) Ping() error {
	return shardmap.PingAny("replica: backend", len(s.members), func(i int) farmem.Pinger { return s.members[i].pinger })
}

// Close stops the maintenance loop and closes every backend that
// implements io.Closer, returning the first error.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		for _, m := range s.members {
			if c, ok := m.eb.(io.Closer); ok {
				if cerr := c.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	})
	return err
}
