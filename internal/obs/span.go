package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Distributed span plumbing. A trace is born at a root cause on the
// client side — a guard miss, a prefetch issue, a staged write-back —
// and its context (trace ID + parent span ID + sampled flag) rides the
// wire on every tagged frame of a traced session, so the server and
// the transport label their spans with the same trace ID. Layers run on
// different timebases (the farmem runtime counts virtual cycles, the
// transport wall clock), so the link between their spans is causal (the
// shared trace ID in TraceEvent.Trace) rather than positional.

// SpanContext identifies one in-progress trace. The zero value means
// "not traced" and is what every accessor returns off the sampled path.
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// TraceHub owns the cross-layer tracing state of one client process:
// the ID allocator, the adaptive head sampler, the shared event ring,
// the slow-op flight recorder, and the active-context handoff slot that
// carries a root span from the layer that started it (farmem) into the
// transport enqueue that happens synchronously under it.
//
// A nil *TraceHub is valid and inert, like a nil *Tracer.
type TraceHub struct {
	// Tracer receives sampled span events; may be nil (sampling then
	// still drives the flight recorder and wire context).
	Tracer *Tracer
	// Recorder is the always-on slow-op flight recorder; may be nil.
	Recorder *FlightRecorder

	nextID  atomic.Uint64
	sampler sampler
	active  atomic.Pointer[SpanContext]
}

// NewTraceHub builds a hub whose head sampler targets about
// tracesPerSec sampled root spans per second (0 or negative selects
// DefaultTraceTarget; use SampleAll for tests and smoke runs that need
// every op traced).
func NewTraceHub(tracer *Tracer, rec *FlightRecorder, tracesPerSec float64) *TraceHub {
	h := &TraceHub{Tracer: tracer, Recorder: rec}
	h.sampler.init(tracesPerSec)
	return h
}

// DefaultTraceTarget is the default head-sampling budget in sampled
// root traces per second. Low-rate workloads trace everything; past the
// target the effective sampling probability adapts down as target/rate.
const DefaultTraceTarget = 500.0

// SampleAll disables head-sampling throttling: every root is sampled.
// For tests and bounded smoke runs only.
const SampleAll = -1.0

// StartTrace allocates a root span context, head-sampled. The context
// is returned even when unsampled (IDs are cheap and the flight
// recorder labels its records with them); Sampled gates the expensive
// half — span emission into the ring.
func (h *TraceHub) StartTrace() SpanContext {
	if h == nil {
		return SpanContext{}
	}
	return SpanContext{
		TraceID: h.nextID.Add(1),
		SpanID:  h.nextID.Add(1),
		Sampled: h.sampler.allow(),
	}
}

// SetActive installs ctx as the calling layer's current root context.
// The transport's enqueue paths (which run synchronously under the
// runtime's deref/prefetch/write-back calls) pick it up via Active and
// stamp it onto the wire. Call ClearActive when the causal window ends.
// Only traced roots should be installed, so the non-traced hot path
// never reaches this (and never allocates).
func (h *TraceHub) SetActive(ctx SpanContext) {
	if h == nil {
		return
	}
	c := ctx
	h.active.Store(&c)
}

// ClearActive ends the active-context window opened by SetActive.
func (h *TraceHub) ClearActive() {
	if h == nil {
		return
	}
	h.active.Store(nil)
}

// Active returns the installed root context, or the zero context when
// none is active. It is a single atomic load on the hot path.
func (h *TraceHub) Active() SpanContext {
	if h == nil {
		return SpanContext{}
	}
	if p := h.active.Load(); p != nil {
		return *p
	}
	return SpanContext{}
}

// Emit forwards a span event to the hub's ring tracer (nil-safe).
func (h *TraceHub) Emit(ev TraceEvent) {
	if h == nil {
		return
	}
	h.Tracer.Emit(ev)
}

// Offer forwards one completed op record to the flight recorder
// (nil-safe); see FlightRecorder.Offer for the fast-path contract.
func (h *TraceHub) Offer(op SlowOp) {
	if h == nil || h.Recorder == nil {
		return
	}
	h.Recorder.Offer(op)
}

// sampler is a token-bucket head sampler: up to perSec root traces per
// second are sampled, with a burst of one second's budget. At offered
// rates below perSec every root is sampled; above it the effective
// probability adapts to perSec/rate. The mutex is fine here — allow()
// runs only at root-span starts, which are remote-miss slow paths.
type sampler struct {
	mu     sync.Mutex
	all    bool
	perSec float64
	tokens float64
	last   time.Time
}

func (s *sampler) init(perSec float64) {
	if perSec == SampleAll {
		s.all = true
		return
	}
	if perSec <= 0 {
		perSec = DefaultTraceTarget
	}
	s.perSec = perSec
	s.tokens = perSec
	s.last = time.Now()
}

func (s *sampler) allow() bool {
	if s.all {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	s.tokens += now.Sub(s.last).Seconds() * s.perSec
	if s.tokens > s.perSec {
		s.tokens = s.perSec
	}
	s.last = now
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}
