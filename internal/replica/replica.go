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
	"fmt"
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
// surface plus two asynchronous epoch-stamped verbs
// (remote.PipelinedClient satisfies it). A zero-length read is a pure
// epoch probe. A write with nil extents ships the full image src; with
// extents it ships only those, and the peer splices them onto its stored
// copy only when that copy is the immediate predecessor epoch — a missed
// epoch NAKs with remote.ErrStaleRangeBase, which the fan-out treats like
// any failed sub-write (mark divergent, resync repairs with full
// objects).
type EpochBackend interface {
	farmem.Store
	IssueReadEpoch(ds, idx int, dst []byte, done func(epoch uint64, err error))
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

// member is one fleet backend plus its replication state: whether it is
// in the read set, and a divergence generation that invalidates an
// in-flight resync when the member misses further writes mid-sweep.
type member struct {
	*shardmap.Backend
	eb EpochBackend

	inSync     atomic.Bool
	divergeGen atomic.Uint64
	resyncing  atomic.Bool

	reads, writes        *stats.Counter
	divergences, resyncs *stats.Counter
	insyncGauge          *stats.Gauge
}

// objMeta is the client-side authority record for one object: the
// newest epoch stamped, the newest a write quorum acknowledged, and the
// image size (what a resync needs to re-read it from a survivor).
type objMeta struct {
	epoch, acked uint64
	size         uint32
}

// Store is the replicated far tier. It implements farmem.Store,
// farmem.AsyncStore, farmem.AsyncWriteStore, farmem.RangeWriteStore,
// farmem.AsyncChaseStore, farmem.Pinger, farmem.Recoverable and
// farmem.DrainScoper.
type Store struct {
	*shardmap.Fleet
	members []*member
	w       int
	hub     *obs.TraceHub

	// epochs is the per-object epoch authority and resync inventory:
	// the runtime above is the single writer per object, so the counter
	// assigned here is the total order every replica's image is ranked
	// by.
	epMu   sync.Mutex
	epochs map[uint64]objMeta

	failovers, quorumFailures   *stats.Counter
	resyncedObjs, resyncSkipped *stats.Counter
	chaseFailovers              *stats.Counter
}

// New builds a replicated Store over the given backends. Every backend
// must speak the epoch-stamped verbs (EpochBackend); liveness probing
// is detected per backend by type assertion.
func New(backends []farmem.Store, opts Options) (*Store, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	opts.Replicas = min(opts.Replicas, MaxReplicas, max(len(backends), 1))
	opts.WriteQuorum = min(max(opts.WriteQuorum, 1), opts.Replicas)
	f, err := shardmap.NewFleet(backends, opts.Replicas, opts.BreakerThreshold, opts.ProbeEvery, opts.Obs, shardmap.Series{
		Pkg: "replica", Label: "backend", Failures: MetricReplicaFailures,
		Trips: MetricReplicaTrips, Recoveries: MetricReplicaRecoveries, State: MetricReplicaState,
	})
	if err != nil {
		return nil, err
	}
	reg := f.Obs()
	s := &Store{
		Fleet:          f,
		w:              opts.WriteQuorum,
		hub:            opts.Trace,
		epochs:         make(map[uint64]objMeta),
		failovers:      reg.Counter(MetricReplicaFailovers),
		quorumFailures: reg.Counter(MetricReplicaQuorumFailures),
		resyncedObjs:   reg.Counter(MetricReplicaResyncedObjs),
		resyncSkipped:  reg.Counter(MetricReplicaResyncSkipped),
		chaseFailovers: reg.Counter(MetricChaseFailovers),
	}
	for i, b := range f.Backends() {
		eb, ok := b.Store.(EpochBackend)
		if !ok {
			return nil, fmt.Errorf("replica: backend %d does not speak the epoch verbs", i)
		}
		m := &member{
			Backend:     b,
			eb:          eb,
			reads:       reg.Counter(MetricReplicaReads, "backend", b.Label),
			writes:      reg.Counter(MetricReplicaWrites, "backend", b.Label),
			divergences: reg.Counter(MetricReplicaDivergences, "backend", b.Label),
			resyncs:     reg.Counter(MetricReplicaResyncs, "backend", b.Label),
			insyncGauge: reg.Gauge(MetricReplicaInSync, "backend", b.Label),
		}
		m.inSync.Store(true)
		m.insyncGauge.Set(1)
		s.members = append(s.members, m)
	}
	f.Start(s.resyncTick)
	return s, nil
}

// MemberState reports one backend's breaker state.
func (s *Store) MemberState(i int) farmem.BreakerState { return s.members[i].Breaker.State() }

// MemberInSync reports whether one backend is currently in the read
// set.
func (s *Store) MemberInSync(i int) bool { return s.members[i].inSync.Load() }

// available counts the members of one object's group whose breaker is
// not open, and reports whether any of them recovered after since.
func (s *Store) available(ds, idx int, since uint64) (avail int, recovered bool) {
	var gbuf [MaxReplicas]int
	for _, gi := range s.GroupOf(ds, idx, gbuf[:0]) {
		m := s.members[gi]
		if m.Breaker.State() != farmem.BreakerOpen {
			avail++
		}
		recovered = recovered || m.RecoveredSince(since)
	}
	return avail, recovered
}

// ShouldDrain implements farmem.DrainScoper: a parked write-back is
// worth reissuing when some member of the object's group recovered
// after sinceEpoch and enough members are reachable to meet the write
// quorum.
func (s *Store) ShouldDrain(ds, idx int, sinceEpoch uint64) bool {
	avail, recovered := s.available(ds, idx, sinceEpoch)
	return recovered && avail >= s.w
}

// Stranded implements farmem.DrainScoper: the object's group cannot
// currently meet the write quorum, so its write-back must stay parked.
func (s *Store) Stranded(ds, idx int) bool {
	avail, _ := s.available(ds, idx, 0)
	return avail < s.w
}

// stampWrite assigns the next epoch for one object and records the
// image size for the resync inventory.
func (s *Store) stampWrite(ds, idx, size int) uint64 {
	k := shardmap.ObjKey(ds, idx)
	s.epMu.Lock()
	meta := s.epochs[k]
	meta.epoch++
	meta.size = uint32(size)
	s.epochs[k] = meta
	s.epMu.Unlock()
	return meta.epoch
}

// readBar returns the epoch a read must find: the newest a write quorum
// acknowledged (0: any image). Not the newest stamped — a write that
// failed everywhere stamped an epoch no member holds, and the reissue
// of a lost splice starts by reading the base (DESIGN.md §11).
func (s *Store) readBar(ds, idx int) uint64 {
	s.epMu.Lock()
	e := s.epochs[shardmap.ObjKey(ds, idx)].acked
	s.epMu.Unlock()
	return e
}

// ack records that a write quorum acknowledged epoch.
func (s *Store) ack(ds, idx int, epoch uint64) {
	k := shardmap.ObjKey(ds, idx)
	s.epMu.Lock()
	if meta := s.epochs[k]; meta.acked < epoch {
		meta.acked = epoch
		s.epochs[k] = meta
	}
	s.epMu.Unlock()
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
	ds, idx   int
	epoch     uint64
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
		sl.m.OK()
		sl.m.writes.Inc()
	} else {
		// Failed or uncertain: the member may not hold this epoch.
		sl.m.Fail()
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
	ds, idx, epoch := j.ds, j.idx, j.epoch
	j.done = nil
	for i := range j.slots {
		j.slots[i].m = nil
	}
	writeJoinPool.Put(j)
	switch {
	case acks >= s.w:
		s.ack(ds, idx, epoch)
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
// each member receives only those. A member whose base image missed an
// epoch NAKs the splice with remote.ErrStaleRangeBase; subDone marks it
// divergent exactly like a failed full write, and the anti-entropy
// resync repairs it with whole objects — range writes can therefore
// never wedge a replica in a silently-diverged state.
func (s *Store) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	j := writeJoinPool.Get().(*writeJoin)
	j.s, j.ds, j.idx = s, ds, idx
	j.done = done
	j.acks.Store(0)
	group := s.GroupOf(ds, idx, j.group[:0])
	epoch := s.stampWrite(ds, idx, len(src))
	j.epoch = epoch
	n := 0
	for _, gi := range group {
		m := s.members[gi]
		if !m.Breaker.Gate() {
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
		j.slots[i].m.eb.IssueWriteRangesEpoch(ds, idx, epoch, src, exts, j.slots[i].fn)
	}
}

// WriteObj implements farmem.Store: IssueWrite, waited for.
func (s *Store) WriteObj(ds, idx int, src []byte) error {
	return shardmap.Wait(func(done func(error)) { s.IssueWrite(ds, idx, src, done) })
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
	group := s.GroupOf(ds, idx, j.group[:0])
	j.glen = len(group)
	j.want = s.readBar(ds, idx)
	if s.hub != nil {
		j.start = time.Now()
	}
	j.tryNext()
}

// ReadObj implements farmem.Store: IssueRead, waited for.
func (s *Store) ReadObj(ds, idx int, dst []byte) error {
	return shardmap.Wait(func(done func(error)) { s.IssueRead(ds, idx, dst, done) })
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
			if !m.Breaker.Gate() {
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
		m.Fail()
		s.failovers.Inc()
		j.tryNext()
		return
	}
	if epoch < j.want {
		// The backend answered but its image misses epochs it should
		// hold (e.g. it restarted with stale state before resync
		// noticed): exclude it from reads and fail over.
		m.OK()
		s.markDivergent(m)
		s.failovers.Inc()
		j.tryNext()
		return
	}
	m.OK()
	m.reads.Inc()
	j.finish(nil)
}

func (j *readJoin) finish(err error) {
	s := j.s
	if s.hub != nil && j.attempts > 1 {
		label := ""
		if j.cur != nil {
			label = j.cur.Label
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
