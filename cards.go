// Package cards is the public face of the CaRDS reproduction: a
// far-memory runtime with per-data-structure remoting and prefetching
// policies, plus remote container types for direct library use.
//
// Two usage models mirror the paper:
//
//   - Library model (this package): construct a Runtime, create remote
//     Arrays/Lists/Maps with access-pattern hints, and use them like
//     local containers while the runtime manages placement, caching,
//     prefetching and eviction — the AIFM-style interface.
//   - Compiler model (internal/core + cmd/cardsc): write a program in
//     the project IR, let the CaRDS passes discover the data structures
//     and inject the policies automatically, and execute it on the same
//     runtime. The paper's evaluation (cmd/cardsbench) uses this path.
//
// The network tier is simulated by default (deterministic virtual time
// calibrated to the paper's Table 1); pass RemoteAddr to back far memory
// with a real cardsd server over TCP.
package cards

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/netsim"
	"cards/internal/obs"
	"cards/internal/remote"
	"cards/internal/replica"
)

// Pattern is the access-pattern hint for a data structure; it selects
// the dedicated prefetcher (paper §4.2).
type Pattern int

// Access-pattern hints.
const (
	// Unknown disables prefetching for the structure.
	Unknown Pattern = iota
	// Strided structures get the majority-stride prefetcher.
	Strided
	// PointerChase structures get the jump-pointer prefetcher (or the
	// greedy recursive prefetcher when elements carry several pointers).
	PointerChase
	// Indirect (gather-style) structures are not prefetched; their
	// index arrays are.
	Indirect
)

func (p Pattern) farmem() farmem.Pattern {
	switch p {
	case Strided:
		return farmem.PatternStrided
	case PointerChase:
		return farmem.PatternPointerChase
	case Indirect:
		return farmem.PatternIndirect
	}
	return farmem.PatternUnknown
}

// Placement is the remoting decision for a structure.
type Placement int

// Placement choices (§4.2 "Remoting policy selection").
const (
	// Linear defers to the runtime: pinned while pinned memory lasts.
	Linear Placement = iota
	// Pinned requests non-remotable local memory (the runtime may still
	// spill if the structure does not fit).
	Pinned
	// Remotable marks the structure eligible for far memory.
	Remotable
)

func (p Placement) farmem() farmem.Placement {
	switch p {
	case Pinned:
		return farmem.PlacePinned
	case Remotable:
		return farmem.PlaceRemotable
	}
	return farmem.PlaceLinear
}

// Config configures a Runtime.
type Config struct {
	// PinnedMemory is the local memory reserved for non-remotable
	// structures, in bytes.
	PinnedMemory uint64
	// RemotableMemory is the local cache over the far tier, in bytes.
	RemotableMemory uint64
	// WriteBackMemory is the staging budget for dirty evictions whose
	// asynchronous write-backs are still in flight, in bytes; staging
	// whose acks are late may reach twice it before an eviction blocks.
	// 0 means a quarter of RemotableMemory. Only meaningful when the far
	// tier supports batched writes (DESIGN.md §7).
	WriteBackMemory uint64
	// RemoteAddr, when non-empty, backs far memory with a cardsd server
	// at that TCP address instead of the in-process store.
	RemoteAddr string
	// RemoteAddrs backs far memory with N cardsd shards: objects are
	// placed across the servers by rendezvous hashing (pointer-chasing
	// structures pin whole to one shard, flat pools stripe), each shard
	// gets its own pipelined connection and circuit breaker, and one
	// dead server degrades only the objects it owns. A single address
	// here is equivalent to RemoteAddr. Setting both is an error.
	RemoteAddrs []string
	// Replicas, when > 1, turns the multi-backend far tier into a
	// replicated store: each object's shard maps onto a group of R
	// backends (the top R of the same rendezvous ranking the sharded
	// store uses), every write fans out to the whole group with a
	// monotonically increasing epoch stamp, and reads fail over to the
	// highest-epoch surviving replica when a backend dies. A backend
	// returning from an outage is resynced in the background before it
	// serves reads again. Requires at least Replicas addresses in
	// RemoteAddrs and servers that speak the epoch feature.
	Replicas int
	// WriteQuorum is the number of replica acks a write needs before it
	// is reported durable; 0 means 1 (writes ride out R-1 dead
	// backends). Only meaningful with Replicas > 1.
	WriteQuorum int

	// RemoteTimeout bounds each far-tier round trip; on expiry the
	// connection is abandoned and redialed. 0 means 2s; negative
	// disables deadlines.
	RemoteTimeout time.Duration
	// RemoteRetries is how many times an idempotent far-tier operation
	// is retried (with backoff and automatic reconnect) before the error
	// reaches the runtime. 0 means 6; negative disables retries: a cut
	// connection fails its in-flight operations at once.
	RemoteRetries int
	// BreakerThreshold arms the runtime's circuit breaker: after this
	// many consecutive far-tier failures it degrades to local memory,
	// pinning the working set and probing for recovery in the
	// background. With several RemoteAddrs it arms each backend's
	// breaker instead of the runtime's, so one dead backend degrades
	// only its keys. 0 means 8; negative disables the breakers. Only
	// meaningful with RemoteAddr/RemoteAddrs set.
	BreakerThreshold int

	// Compression controls adaptive per-object compression on the
	// compact wire tier: "" or "adaptive" compresses objects whose
	// observed compressibility pays for the CPU, sampling
	// incompressible structures only occasionally; "off" ships every
	// object raw. New refuses any other value.
	Compression string
	// DirtyRangeWriteback ships only the modified byte ranges of a dirty
	// object at eviction when the far tier speaks the compact range
	// verb: the runtime tracks a per-object dirty rectangle from the
	// write guards and the server splices the extents into its stored
	// image. Falls back to full-object write-backs transparently (wide
	// rectangles, unknown coverage). Only meaningful with
	// RemoteAddr/RemoteAddrs set.
	DirtyRangeWriteback bool

	// Trace enables cross-process distributed tracing. Span contexts
	// ride the wire on every tagged frame (the connection's hello asks
	// for the extension), the server stamps
	// each reply with its receive/dispatch/complete times, and every
	// remote operation is decomposed into clock-offset-free client-queue
	// / wire / server-queue / server-service components feeding the
	// cards_attrib_* metric series. Head-sampled span trees accumulate
	// in an in-process ring (WriteChromeTrace); the slowest ops of the
	// last two 10s windows are always retained by the flight recorder
	// (DebugHandler's /debug/slow), however sampling falls.
	Trace bool
	// TraceTarget caps head sampling at about this many sampled root
	// traces per second; 0 means 500. Negative samples every root — for
	// tests and bounded smoke runs only. Ignored unless Trace is set.
	TraceTarget float64
}

// Runtime is a far-memory runtime instance.
type Runtime struct {
	rt       *farmem.Runtime
	tier     replica.FarTier     // nil with the in-process store
	tracer   *obs.Tracer         // non-nil iff Config.Trace
	recorder *obs.FlightRecorder // non-nil iff Config.Trace
}

// New creates a runtime. With Config{} all memory budgets are zero, so
// pass real budgets for anything beyond toy use.
//
// With RemoteAddr set, the connection is pipelined (prefetches overlap:
// a whole lookahead window rides one doorbell). A server that speaks a
// different protocol version is refused with remote.ErrProtoMismatch.
func New(cfg Config) (*Runtime, error) {
	if _, err := remote.CompressionOn(cfg.Compression); err != nil {
		return nil, fmt.Errorf("cards: %w", err)
	}
	fc := farmem.Config{
		PinnedBudget:    cfg.PinnedMemory,
		RemotableBudget: cfg.RemotableMemory,
		WriteBackBudget: cfg.WriteBackMemory,
	}
	var (
		tracer   *obs.Tracer
		recorder *obs.FlightRecorder
		hub      *obs.TraceHub
		reg      *obs.Registry
	)
	if cfg.Trace {
		// One ring and one registry shared by every layer: the runtime's
		// virtual-time spans, the transport's wall-clock spans and the
		// server-stamped components all land in the same export, linked
		// by trace ID.
		tracer = obs.NewTracer(0)
		recorder = obs.NewFlightRecorder(0, 0)
		target := cfg.TraceTarget
		if target < 0 {
			target = obs.SampleAll
		}
		hub = obs.NewTraceHub(tracer, recorder, target)
		reg = obs.NewRegistry()
		fc.Tracer = tracer
		fc.TraceHub = hub
		fc.Obs = reg
	}
	addrs := cfg.RemoteAddrs
	if cfg.RemoteAddr != "" {
		if len(addrs) > 0 {
			return nil, fmt.Errorf("cards: set RemoteAddr or RemoteAddrs, not both")
		}
		addrs = []string{cfg.RemoteAddr}
	}
	var tier replica.FarTier
	if len(addrs) > 0 || cfg.Replicas > 1 {
		timeout := cfg.RemoteTimeout
		if timeout == 0 {
			timeout = 2 * time.Second
		} else if timeout < 0 {
			timeout = 0
		}
		retries := cfg.RemoteRetries
		if retries == 0 {
			retries = remote.DefaultReconnectAttempts
		}
		threshold := cfg.BreakerThreshold
		if threshold == 0 {
			threshold = 8
		} else if threshold < 0 {
			threshold = 0
		}
		fc.RangeWriteback = cfg.DirtyRangeWriteback
		if len(addrs) > 1 && reg == nil {
			reg = obs.NewRegistry() // the per-shard series need one
		}
		// One pipelined client per address. Each redials by itself, so a
		// restarted server resumes remoting without restarting this process
		// (once the reconnect budget is spent, the breaker's Ping probes buy
		// the redials). Several addresses get per-backend breakers on top.
		var err error
		tier, err = replica.Dial(addrs, remote.PipelineOpts{
			Timeout: timeout, RetryMax: retries, Obs: reg, Trace: hub,
			Compression: cfg.Compression,
		}, replica.Options{
			Replicas:         cfg.Replicas,
			WriteQuorum:      cfg.WriteQuorum,
			BreakerThreshold: threshold,
			Obs:              reg,
			Trace:            hub,
		})
		if err != nil {
			return nil, fmt.Errorf("cards: connecting %w", err)
		}
		fc.Store, fc.Obs = tier, reg // runtime + per-backend series in one registry
		// The transport never silently retries an unacknowledged write
		// (it cannot know whether the server applied it); the runtime
		// reissues instead — full-object write-backs are idempotent.
		fc.RetryMax = retries
		fc.BreakerThreshold = threshold
	}
	return &Runtime{
		rt:       farmem.New(fc),
		tier:     tier,
		tracer:   tracer,
		recorder: recorder,
	}, nil
}

// Close settles the dirty write-backs still staged, stops the runtime's
// background work (the breaker's recovery prober) and releases the
// far-tier connection, if any. Write-backs a dead backend still refuses
// are lost: the error says so, joined with any from the release.
func (r *Runtime) Close() error {
	err := r.rt.Close()
	if r.tier != nil {
		err = errors.Join(err, r.tier.Close())
	}
	return err
}

// Stats is a snapshot of runtime activity.
type Stats struct {
	GuardChecks   uint64
	RemoteFetches uint64
	Evictions     uint64
	// VirtualSeconds is elapsed simulated time at the paper's 2.4 GHz.
	VirtualSeconds float64
}

// Stats returns current global counters.
func (r *Runtime) Stats() Stats {
	s := r.rt.Stats()
	return Stats{
		GuardChecks:    s.GuardChecks,
		RemoteFetches:  s.RemoteFetches,
		Evictions:      s.Evictions,
		VirtualSeconds: netsim.Seconds(r.rt.Clock().Now(), netsim.DefaultHz),
	}
}

// DSStats is a per-structure counter snapshot.
type DSStats struct {
	Hits, Misses, Evictions      uint64
	PrefetchIssued, PrefetchHits uint64
}

// dsHandle is the shared plumbing of the container types.
type dsHandle struct {
	r  *Runtime
	d  *farmem.DS
	id int
}

// Stats returns the structure's counters.
func (h *dsHandle) Stats() DSStats {
	s := h.d.Stats()
	return DSStats{
		Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions,
		PrefetchIssued: s.PrefetchIssued, PrefetchHits: s.PrefetchHits,
	}
}

// Local reports whether the structure has never been remoted.
func (h *dsHandle) Local() bool { return h.d.Local() }

// register creates a DS with the given hints and placement.
func (r *Runtime) register(name string, pattern Pattern, placement Placement,
	objSize, elemSize int, ptrOffs []int, recursive bool) (*dsHandle, error) {
	id := r.rt.NumDS()
	meta := farmem.DSMeta{
		Name:       name,
		ObjSize:    objSize,
		ElemSize:   elemSize,
		Pattern:    pattern.farmem(),
		Recursive:  recursive,
		PtrOffsets: ptrOffs,
	}
	d, err := core.Register(r.rt, r.tier, id, meta, placement.farmem(), true)
	if err != nil {
		return nil, err
	}
	return &dsHandle{r: r, d: d, id: id}, nil
}

// Trace streams every far-memory event (fetches, evictions, prefetches,
// spills) of this runtime to w, one line per event. Pass nil to stop
// tracing. Useful when deciding placements: the trace shows exactly
// which structure thrashes.
func (r *Runtime) Trace(w io.Writer) {
	if w == nil {
		r.rt.SetEventHook(nil)
		return
	}
	r.rt.SetEventHook(farmem.TraceWriter(w))
}

// WriteMetrics writes a point-in-time JSON snapshot of every runtime
// metric — the per-structure counters, latency histograms, and occupancy
// gauges the Report table is rendered from.
func (r *Runtime) WriteMetrics(w io.Writer) error {
	return r.rt.ObsSnapshot().WriteJSON(w)
}

// WritePrometheus writes the same snapshot in the Prometheus text
// exposition format (the shape cardsd serves on /metrics).
func (r *Runtime) WritePrometheus(w io.Writer) error {
	return r.rt.ObsSnapshot().WritePrometheus(w)
}

// WriteChromeTrace writes the sampled span trees — runtime events,
// transport spans and server-stamped queue/service components, linked
// per operation by args.trace — as Chrome trace_event JSON, loadable in
// chrome://tracing or Perfetto. Requires Config.Trace.
func (r *Runtime) WriteChromeTrace(w io.Writer) error {
	if r.tracer == nil {
		return fmt.Errorf("cards: tracing is not enabled (set Config.Trace)")
	}
	return r.tracer.WriteChromeTrace(w)
}

// SlowOps returns the flight recorder's current retention — the
// slowest remote operations of the last two windows, slowest first,
// each with its latency decomposition and attempt count. Empty unless
// Config.Trace is set and a remote tier is attached.
func (r *Runtime) SlowOps() []SlowOp {
	ops := r.recorder.Snapshot()
	out := make([]SlowOp, len(ops))
	for i, op := range ops {
		out[i] = SlowOp(op)
	}
	return out
}

// SlowOp is one retained slow-operation record. All duration fields
// are microseconds; ClientQueueUS + WireUS + ServerQueueUS +
// ServerServiceUS == TotalUS by construction, and Attempts > 1 marks
// ops retried or replayed across reconnects.
type SlowOp = obs.SlowOp

// DebugHandler returns the HTTP introspection handler the cmd/ binaries
// mount: /metrics (Prometheus text), /stats (JSON), /debug/slow (the
// flight recorder's span trees) and /debug/pprof/*. Safe without
// Config.Trace — /debug/slow then reports an empty recorder.
func (r *Runtime) DebugHandler() http.Handler {
	return obs.DebugHandler(r.rt.ObsSnapshot, r.recorder)
}
