package farmem

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"cards/internal/netsim"
	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/stats"
)

// Pattern mirrors the compiler's access-pattern classification. The
// runtime keeps its own copy of the enum so it can stand alone (the
// public library API constructs DSMeta directly, without the compiler).
type Pattern int

// Access-pattern hints delivered by the compiler at ds_init.
const (
	PatternUnknown Pattern = iota
	PatternStrided
	PatternPointerChase
	PatternIndirect
)

// DSMeta is the compiler-provided description of one data structure,
// delivered to the runtime at registration (the ds_init hints of §4.2).
type DSMeta struct {
	Name       string
	ObjSize    int   // object granularity in bytes (power of two)
	ElemSize   int   // element size in bytes
	Stride     int64 // majority stride for strided structures
	Pattern    Pattern
	Recursive  bool
	PtrOffsets []int // pointer-field offsets within one element
	UseScore   int   // eq. 1 score
	ReachScore int   // caller/callee chain score
	// WriteFootprint lists the [lo, hi) byte ranges within one element
	// that stores through this structure may modify (compiler-derived).
	// It bounds the dirty rectangle of a spanless write so range
	// write-back stays available when a guard carries no span.
	WriteFootprint [][2]int
}

// Placement is the remoting decision for a data structure.
type Placement int

// Placement modes (paper §4.2 "Remoting policy selection").
const (
	// PlaceLinear defers the decision to allocation time: pinned while
	// pinned memory remains, remotable afterwards (the Linear policy).
	PlaceLinear Placement = iota
	// PlacePinned statically marks the structure non-remotable; the
	// runtime may still override (spill) if it does not fit.
	PlacePinned
	// PlaceRemotable statically marks the structure remotable.
	PlaceRemotable
)

func (p Placement) String() string {
	switch p {
	case PlacePinned:
		return "pinned"
	case PlaceRemotable:
		return "remotable"
	}
	return "linear"
}

// objState tracks where an object's bytes currently live.
type objState uint8

const (
	objUninit   objState = iota // allocated, never touched
	objRemote                   // resident only in the remote store
	objInFlight                 // prefetch issued, payload arriving
	objLocal                    // resident in the local arena
)

// FarObj is one entry of a data structure's object table (the
// pool_manager->ptrs_ array of Listing 4).
type FarObj struct {
	state   objState
	frame   uint64 // arena offset when local
	readyAt uint64 // arrival cycle when in flight
	lastUse uint64 // global access sequence number at last deref
	dirty   bool
	ref     bool // CLOCK reference bit
	epoch   uint32
	// rect is the accumulated written region while dirty (dirtyrange.go);
	// reset when the object ceases to be dirty.
	rect dirtyRect
	// pending carries the staging state of an AsyncStore read while the
	// object is in flight, or local but filling (a store-once miss, see
	// deref); nil on the sync path.
	pending *pendingFetch
}

// completion is how the runtime learns that one asynchronous store op
// (a fetch, a staged write-back, a chase) finished. The store calls fn,
// bound once by newCompletion, exactly once — possibly on another
// goroutine, possibly before the issuing call returns; it fills the one
// slot of a buffered channel, so it never blocks. The single-threaded
// runtime harvests it with wait or ready, which cache the result.
type completion struct {
	ch      chan error
	fn      func(error)
	err     error
	settled bool
}

func newCompletion() completion {
	ch := make(chan error, 1)
	return completion{ch: ch, fn: func(err error) { ch <- err }}
}

// wait blocks until the op completes and returns its error.
func (c *completion) wait() error {
	if !c.settled {
		c.err, c.settled = <-c.ch, true
	}
	return c.err
}

// ready polls for completion without blocking.
func (c *completion) ready() bool {
	if !c.settled {
		select {
		case c.err = <-c.ch:
			c.settled = true
		default:
		}
	}
	return c.settled
}

// pendingFetch is the completion state of one asynchronous read. The
// payload lands in buf — a private staging buffer, not the arena frame —
// because the arena slab may be reallocated (grown) while the read is in
// flight, which would invalidate any slice into it.
//
// A pendingFetch outlives its read: harvest returns it to the runtime's
// per-size free list (getFetch/putFetch in memory.go), so buf and the
// completion are made once per lookahead slot, not once per prefetch.
type pendingFetch struct {
	buf []byte
	// stores logs the bytes store-once guards wrote into a filling
	// object's frame; harvest keeps them over the payload.
	stores []storeSpan
	completion
}

// storeSpan is one logged store: n bytes at byte off of the object.
type storeSpan struct{ off, n int32 }

// storeLogCap bounds a filling object's store log; a store-once guard
// that finds it full settles the object first.
const storeLogCap = 32

// logStore logs a word store at byte off of an object of size bytes
// and reports whether the log had room.
func (p *pendingFetch) logStore(off, size int) bool {
	if len(p.stores) == cap(p.stores) {
		return false
	}
	p.stores = append(p.stores, storeSpan{int32(off), int32(min(8, size-off))})
	return true
}

// DSStats is a snapshot of one structure's runtime counters.
type DSStats struct {
	Hits, Misses, ColdFaults     uint64
	Evictions, WriteBacks        uint64
	PrefetchIssued, PrefetchHits uint64
	PinnedBytes, RemoteBytes     uint64
}

// DS is the runtime state of one data structure instance.
type DS struct {
	ID   int
	Meta DSMeta

	placement Placement
	// everRemote is set once any allocation of this structure received a
	// tagged address; cards_all_local then answers false for it.
	everRemote bool
	// spilled is set when a pinned structure ran out of pinned memory
	// and the runtime overrode the static hint.
	spilled bool
	// localPromise is set once a cards_all_local check has committed an
	// unguarded code path to this structure: all later growth must stay
	// local.
	localPromise bool

	objShift uint
	rowShift uint   // log2 of the dirty-rectangle row size (rectShift)
	size     uint64 // virtual extent of the tagged region
	objs     []FarObj

	prefetcher  Prefetcher
	maxInflight int
	inflight    int

	// chaseGen invalidates in-flight traversal offloads: it advances on
	// every dirty eviction (write-back) of the structure, and a chase
	// result issued under an older generation is dropped (see chase.go).
	chaseGen uint64

	// label is the ds="<id>" metric label.
	label string

	stats DSStats

	// The latency histograms are single-writer locals (the runtime is
	// single-threaded): a plain Observe costs ~2 ns where the registry's
	// atomic one costs ~20, which is measurable even on the remote-fault
	// path. PublishObs copies them into the registry's concurrent
	// series. They sit last so their ~1.5 KB of buckets stays off the
	// cache lines the fault path walks.
	fetchHist  stats.LocalHistogram
	pfWaitHist stats.LocalHistogram
	evictHist  stats.LocalHistogram
}

// Stats returns a copy of the structure's counters.
func (d *DS) Stats() DSStats { return d.stats }

// PrefetchCounts returns the issued and hit prefetch tallies alone: the
// adaptive prefetch monitor reads them on every access, where copying
// the whole DSStats showed up in profiles.
func (d *DS) PrefetchCounts() (issued, hits uint64) {
	return d.stats.PrefetchIssued, d.stats.PrefetchHits
}

// Placement returns the structure's configured placement.
func (d *DS) Placement() Placement { return d.placement }

// Spilled reports whether the runtime overrode a pinned hint.
func (d *DS) Spilled() bool { return d.spilled }

// Local reports whether the structure has never been remoted (the
// cards_all_local predicate for a single structure).
func (d *DS) Local() bool { return !d.everRemote }

// Size returns the tagged virtual extent in bytes.
func (d *DS) Size() uint64 { return d.size }

// Prefetcher decides which objects to pull ahead of demand. The runtime
// invokes it after every deref of its data structure; implementations
// call Runtime.PrefetchObj for the objects they want in flight.
type Prefetcher interface {
	Name() string
	OnAccess(r *Runtime, d *DS, objIdx int, miss bool)
}

// nullPrefetcher never prefetches.
type nullPrefetcher struct{}

func (nullPrefetcher) Name() string                      { return "none" }
func (nullPrefetcher) OnAccess(*Runtime, *DS, int, bool) {}

// Store is the remote memory tier: a keyed object store addressed by
// (data structure, object index). Implementations: the in-process
// MapStore below, and the TCP-backed client in internal/remote.
type Store interface {
	// ReadObj fills dst with the object's bytes (zeros if never written).
	ReadObj(ds, idx int, dst []byte) error
	// WriteObj persists the object's bytes.
	WriteObj(ds, idx int, src []byte) error
}

// AsyncStore is a Store that can additionally issue reads without
// blocking the caller. IssueRead starts filling dst and returns
// immediately; done is invoked exactly once — possibly on another
// goroutine, possibly before IssueRead returns — when dst is complete or
// the read has failed, and must not block. The runtime detects the
// capability by type assertion, so plain Stores (simulations, MapStore)
// keep the synchronous prefetch path unchanged.
type AsyncStore interface {
	Store
	IssueRead(ds, idx int, dst []byte, done func(error))
}

// Surfaces is every optional capability of a Store, detected once by
// type assertion: a nil field is a surface the store lacks. The layers
// that route per backend (the runtime, shardmap, replica) each keep one
// per store instead of their own assertion ladder.
type Surfaces struct {
	Async      AsyncStore
	AsyncWrite AsyncWriteStore
	RangeWrite RangeWriteStore
	Chase      AsyncChaseStore
	Pinger     Pinger
}

// SurfacesOf detects the optional surfaces of s.
func SurfacesOf(s Store) (c Surfaces) {
	c.Async, _ = s.(AsyncStore)
	c.AsyncWrite, _ = s.(AsyncWriteStore)
	c.RangeWrite, _ = s.(RangeWriteStore)
	c.Chase, _ = s.(AsyncChaseStore)
	c.Pinger, _ = s.(Pinger)
	return c
}

// MapStore is the in-process remote store used by simulations and tests.
// It is safe for concurrent use: async completions and concurrent
// runtimes may touch the map from different goroutines.
type MapStore struct {
	mu sync.RWMutex
	m  map[[2]int][]byte
}

// NewMapStore creates an empty in-process store.
func NewMapStore() *MapStore { return &MapStore{m: make(map[[2]int][]byte)} }

// ReadObj implements Store.
func (s *MapStore) ReadObj(ds, idx int, dst []byte) error {
	s.mu.RLock()
	b, ok := s.m[[2]int{ds, idx}]
	s.mu.RUnlock()
	if ok {
		copy(dst, b)
		return nil
	}
	clear(dst)
	return nil
}

// WriteObj implements Store.
func (s *MapStore) WriteObj(ds, idx int, src []byte) error {
	b := make([]byte, len(src))
	copy(b, src)
	s.mu.Lock()
	s.m[[2]int{ds, idx}] = b
	s.mu.Unlock()
	return nil
}

// Objects returns the number of objects resident in the store.
func (s *MapStore) Objects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Config configures a Runtime.
type Config struct {
	// Model is the cycle cost model; zero value uses the defaults.
	Model netsim.CostModel
	// PinnedBudget and RemotableBudget split local memory (bytes).
	PinnedBudget, RemotableBudget uint64
	// Store is the remote tier; nil uses an in-process MapStore.
	Store Store
	// MaxInflight caps outstanding prefetches per data structure.
	MaxInflight int
	// TrackFMGuards switches guard/fault cost accounting to the TrackFM
	// cost profile of Table 1 (used by the baseline).
	TrackFMGuards bool
	// Obs is the metrics registry the runtime publishes into; nil gives
	// the runtime a private registry (reachable via Runtime.Obs). Sharing
	// one registry across runtimes accumulates histograms but makes
	// published counters last-publish-wins.
	Obs *obs.Registry
	// Tracer receives runtime events into the bounded ring (in addition
	// to any legacy SetEventHook subscriber); nil disables ring tracing.
	Tracer *obs.Tracer
	// TraceHub, when non-nil, makes the runtime the root of distributed
	// traces: every remote miss, prefetch issue, and eviction write-back
	// opens a root span context that the transport (when sharing the
	// hub) picks up synchronously and carries across the wire, and
	// runtime trace events are labeled with the sampled trace ID.
	TraceHub *obs.TraceHub

	// RetryMax is the number of times a failed store operation is
	// reissued before the failure propagates (each reissue charges a
	// wasted round trip plus backoff to the link). 0 disables retries.
	RetryMax int
	// BreakerThreshold arms the circuit breaker: after this many
	// consecutive store failures the runtime degrades to local memory
	// (see breaker.go). 0 disables the breaker.
	BreakerThreshold int
	// BreakerCeiling bounds how far the remotable budget may grow while
	// degraded; 0 means 4x RemotableBudget.
	BreakerCeiling uint64
	// BreakerProbe is the wall-clock interval between recovery probes
	// while the breaker is open; 0 means 250ms.
	BreakerProbe time.Duration

	// WriteBackBudget bounds the bytes of dirty eviction payloads staged
	// for asynchronous write-back (writeback.go); 0 means
	// RemotableBudget/4. Once staged-but-unsettled payload exceeds the
	// budget, the next dirty eviction blocks on the oldest staged write.
	WriteBackBudget uint64

	// RangeWriteback enables dirty-range write-back (dirtyrange.go):
	// evictions of objects whose writes the guards bounded ship only the
	// modified byte ranges when the store supports it (RangeWriteStore).
	RangeWriteback bool
}

// clockEntry is one CLOCK ring slot.
type clockEntry struct {
	ds    *DS
	idx   int
	epoch uint32
}

// RuntimeStats aggregates global counters.
type RuntimeStats struct {
	GuardChecks   uint64 // custody checks executed
	FastPathHits  uint64 // untagged addresses (pinned memory)
	DerefCalls    uint64 // slow-path cards_deref invocations
	RemoteFetches uint64
	Evictions     uint64
	SpilledDS     uint64
	AllLocalCalls uint64
	// OvercommitBytes counts pinned allocations beyond the pinned budget
	// forced by local promises (unguarded code paths).
	OvercommitBytes uint64

	// Fault-tolerance counters (see breaker.go).
	StoreRetries      uint64 // store operations reissued after a failure
	DegradedOps       uint64 // store operations refused while the breaker was open
	BreakerTrips      uint64 // closed -> open transitions
	BreakerRecoveries uint64 // half-open -> closed transitions
	DrainedWriteBacks uint64 // dirty objects written back during recovery

	// Asynchronous write-back pipeline counters (see writeback.go).
	StagedWriteBacks     uint64 // dirty evictions staged for async write-back
	WriteBackStalls      uint64 // evictions that blocked on the staging budget or per-object ordering
	WriteBackReissues    uint64 // failed/uncertain async writes reissued synchronously
	WriteBackStagingHits uint64 // derefs served read-your-writes from a staging buffer

	// Dirty-range write-back counters (see dirtyrange.go).
	RangeWriteBacks uint64 // evictions that shipped extents instead of the full object
	RangeBytesSaved uint64 // object bytes elided from the wire by range write-backs

	// Traversal-offload counters (see chase.go).
	ChasesIssued     uint64 // traversal programs shipped to the far tier
	ChaseHopsStaged  uint64 // path objects delivered and staged for deref
	ChaseStagingHits uint64 // derefs served from chase-staged objects
	ChaseStale       uint64 // chase results dropped by the generation guard
	ChaseFallbacks   uint64 // chases that failed; traversal fell back to per-hop reads
}

// Runtime is the CaRDS far-memory runtime.
type Runtime struct {
	model  netsim.CostModel
	clock  *netsim.Clock
	link   *netsim.Link
	arena  *Arena
	store  Store
	astore AsyncStore              // non-nil iff store supports IssueRead
	pfFree map[int][]*pendingFetch // recycled async-read staging, by size

	// Asynchronous write-back pipeline (writeback.go).
	rwstore   RangeWriteStore // non-nil iff range write-back is on and supported
	extFree   [][]rdma.Extent // pooled extent slices (dirtyrange.go)
	awstore   AsyncWriteStore // non-nil iff store supports IssueWrite
	wbPending map[wbKey]*pendingWB
	wbOrder   []*pendingWB // issue-order FIFO (entries validated lazily)
	wbBytes   uint64       // staged-but-unsettled payload bytes
	wbBudget  uint64
	wbFree    map[int][][]byte // staging buffer free lists, by size
	wbBusy    bool             // order-list scan reentrancy guard

	// Traversal offload (chase.go).
	chaser           AsyncChaseStore // non-nil iff store supports IssueChase
	chaseStaged      map[wbKey][]byte
	chaseStarts      map[wbKey]*pendingChase // in-flight programs by start object
	chaseInflight    []*pendingChase
	chaseStagedBytes uint64
	chaseHarvesting  bool // reentrancy guard (settle can issue, issue harvests)

	pinnedBudget, remotableBudget uint64
	pinnedUsed, remotableUsed     uint64

	dss  []*DS
	ring []clockEntry
	hand int

	trackFM            bool
	defaultMaxInflight int
	accessSeq          uint64
	remoteGen          uint64 // see RemoteGen
	inflightBytes      uint64
	hook               EventHook
	tracer             *obs.Tracer
	tracing            bool // hook != nil || tracer != nil
	reg                *obs.Registry

	// Distributed tracing (see beginRoot/endRoot in trace.go). The
	// runtime is single-threaded, so the active-root bookkeeping needs
	// no synchronization; curTrace is the sampled trace ID attached to
	// runtime events while a root is open (0 otherwise).
	hub        *obs.TraceHub
	rootActive bool
	curTrace   uint64

	// Fault tolerance (breaker.go). baseRemotableBudget is the configured
	// budget the breaker restores after degraded-mode growth.
	retryMax            int
	breaker             *Breaker // never nil; threshold 0 never trips
	prober              *Prober  // nil unless the breaker can trip and the store pings
	breakerCeiling      uint64
	baseRemotableBudget uint64
	closeOnce           sync.Once

	// Per-shard fault domains (sharded stores; see Recoverable).
	// degradedDirty records that some dirty object's write-back was
	// refused with ErrDegraded — the cue that a later recovery epoch has
	// work to drain. draining guards maybeDrainShards against reentry
	// (its write-backs run through storeOp themselves).
	recoverable       Recoverable
	drainScoper       DrainScoper
	lastRecoveryEpoch uint64
	degradedDirty     bool
	draining          bool

	stats RuntimeStats
}

// New creates a runtime with the given configuration.
func New(cfg Config) *Runtime {
	model := cfg.Model
	if model.Instr == 0 {
		model = netsim.DefaultCostModel()
	}
	if cfg.TrackFMGuards {
		// TrackFM's remote guard path is leaner than a CaRDS fault
		// (Table 1: ~46K vs ~59K cycles): its fixed-block tracking skips
		// the per-structure dispatch the AIFM-derived fault path pays.
		// Model it as a shorter effective round trip so that
		// guard + RTT + 4 KiB transfer lands at the measured ~46K.
		model.RemoteRTT = (model.TrackFMGuardRemoteRead + model.TrackFMGuardRemoteWrite) / 2
	}
	clock := &netsim.Clock{}
	store := cfg.Store
	if store == nil {
		store = NewMapStore()
	}
	mi := cfg.MaxInflight
	if mi <= 0 {
		mi = 16
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r := &Runtime{
		model:               model,
		clock:               clock,
		link:                netsim.NewLink(model, clock),
		arena:               NewArena(initialArenaCap(cfg.PinnedBudget + cfg.RemotableBudget)),
		store:               store,
		pinnedBudget:        cfg.PinnedBudget,
		remotableBudget:     cfg.RemotableBudget,
		baseRemotableBudget: cfg.RemotableBudget,
		trackFM:             cfg.TrackFMGuards,
		tracer:              cfg.Tracer,
		tracing:             cfg.Tracer != nil,
		reg:                 reg,
		hub:                 cfg.TraceHub,
		retryMax:            cfg.RetryMax,
	}
	caps := SurfacesOf(store)
	if r.astore = caps.Async; r.astore != nil {
		r.pfFree = make(map[int][]*pendingFetch)
	}
	if r.awstore = caps.AsyncWrite; r.awstore != nil {
		if cfg.RangeWriteback {
			r.rwstore = caps.RangeWrite
		}
		r.wbPending = make(map[wbKey]*pendingWB)
		r.wbFree = make(map[int][][]byte)
		r.wbBudget = cfg.WriteBackBudget
		if r.wbBudget == 0 {
			r.wbBudget = cfg.RemotableBudget / 4
		}
	}
	if r.chaser = caps.Chase; r.chaser != nil {
		r.chaseStaged = make(map[wbKey][]byte)
		r.chaseStarts = make(map[wbKey]*pendingChase)
	}
	if r.recoverable, _ = store.(Recoverable); r.recoverable != nil {
		r.lastRecoveryEpoch = r.recoverable.RecoveryEpoch()
		r.drainScoper, _ = store.(DrainScoper)
	}
	r.defaultMaxInflight = mi
	// The ceiling caps degraded-mode budget growth. It applies both to
	// the global breaker and to per-shard degradation (which needs no
	// breaker configured), so it is set unconditionally.
	r.breakerCeiling = cfg.BreakerCeiling
	if r.breakerCeiling == 0 {
		r.breakerCeiling = 4 * cfg.RemotableBudget
	}
	r.breaker = NewBreaker(cfg.BreakerThreshold, cfg.BreakerProbe, caps.Pinger)
	r.prober = StartProber([]*Breaker{r.breaker}, nil)
	return r
}

// initialArenaCap caps the arena's eager capacity: budgets may be set
// far larger than the memory a run actually touches (e.g. Mira's
// unconstrained profiling pass), and the arena grows on demand anyway.
func initialArenaCap(budget uint64) int64 {
	const eager = 1 << 24 // 16 MiB
	if budget+(1<<16) < eager {
		return int64(budget + (1 << 16))
	}
	return eager
}

// Clock returns the runtime's virtual clock.
func (r *Runtime) Clock() *netsim.Clock { return r.clock }

// Link returns the simulated network link.
func (r *Runtime) Link() *netsim.Link { return r.link }

// Model returns the cost model in use.
func (r *Runtime) Model() *netsim.CostModel { return &r.model }

// Arena exposes the local memory slab (the interpreter reads and writes
// through it using localized addresses).
func (r *Runtime) Arena() *Arena { return r.arena }

// Stats returns a copy of the global counters.
func (r *Runtime) Stats() RuntimeStats { return r.stats }

// DSByID returns the data structure with the given handle, or nil.
func (r *Runtime) DSByID(id int) *DS {
	if id < 0 || id >= len(r.dss) {
		return nil
	}
	return r.dss[id]
}

// NumDS returns the number of registered data structures.
func (r *Runtime) NumDS() int { return len(r.dss) }

// PinnedUsed and RemotableUsed report current local memory consumption.
func (r *Runtime) PinnedUsed() uint64 { return r.pinnedUsed }

// RemotableUsed reports bytes of remotable local memory in use.
func (r *Runtime) RemotableUsed() uint64 { return r.remotableUsed }

// RegisterDS registers a data structure with compiler-provided metadata
// and returns its runtime state. IDs must be registered densely from 0.
func (r *Runtime) RegisterDS(id int, meta DSMeta) (*DS, error) {
	if id != len(r.dss) {
		return nil, fmt.Errorf("farmem: non-dense DS id %d (have %d)", id, len(r.dss))
	}
	if id > MaxDS {
		return nil, fmt.Errorf("farmem: DS id %d exceeds handle space", id)
	}
	if meta.ObjSize <= 0 {
		meta.ObjSize = 4096
	}
	meta.ObjSize = nextPow2(meta.ObjSize)
	d := &DS{
		ID:          id,
		Meta:        meta,
		objShift:    log2(meta.ObjSize),
		rowShift:    rectShift(meta),
		prefetcher:  nullPrefetcher{},
		maxInflight: r.defaultMaxInflight,
		label:       strconv.Itoa(id),
	}
	r.dss = append(r.dss, d)
	return d, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n int) uint {
	s := uint(0)
	for 1<<s < n {
		s++
	}
	return s
}

// SetPlacement configures the remoting decision for a structure.
func (r *Runtime) SetPlacement(id int, p Placement) error {
	d := r.DSByID(id)
	if d == nil {
		return fmt.Errorf("farmem: SetPlacement: unknown DS %d", id)
	}
	d.placement = p
	return nil
}

// SetPrefetcher installs a prefetcher for a structure.
func (r *Runtime) SetPrefetcher(id int, p Prefetcher) error {
	d := r.DSByID(id)
	if d == nil {
		return fmt.Errorf("farmem: SetPrefetcher: unknown DS %d", id)
	}
	if p == nil {
		p = nullPrefetcher{}
	}
	d.prefetcher = p
	return nil
}
