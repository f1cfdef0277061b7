package farmem

import (
	"fmt"
	"io"

	"cards/internal/obs"
)

// EventKind classifies runtime events for tracing.
type EventKind uint8

// Trace event kinds.
const (
	// EvFetch: a demand miss fetched an object from the far tier.
	EvFetch EventKind = iota + 1
	// EvPrefetch: an asynchronous prefetch was issued.
	EvPrefetch
	// EvPrefetchHit: a demand access consumed an in-flight prefetch.
	EvPrefetchHit
	// EvEvict: an object was evicted (Dirty reports a write-back).
	EvEvict
	// EvSpill: the runtime overrode a pinned hint (structure remoted).
	EvSpill
	// EvMaterialize: first touch of an uninitialized object.
	EvMaterialize
	// EvBreakerTrip: the circuit breaker opened after consecutive
	// remote-tier failures; the runtime degrades to local memory.
	EvBreakerTrip
	// EvBreakerRecover: a probe succeeded; remoting resumed and dirty
	// objects were drained back to the far tier.
	EvBreakerRecover
)

func (k EventKind) String() string {
	switch k {
	case EvFetch:
		return "fetch"
	case EvPrefetch:
		return "prefetch"
	case EvPrefetchHit:
		return "prefetch-hit"
	case EvEvict:
		return "evict"
	case EvSpill:
		return "spill"
	case EvMaterialize:
		return "materialize"
	case EvBreakerTrip:
		return "breaker-trip"
	case EvBreakerRecover:
		return "breaker-recover"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one traced runtime occurrence.
type Event struct {
	Cycle uint64
	Kind  EventKind
	DS    int
	Obj   int
	Dirty bool
}

// String renders the event in the one-line trace format.
func (e Event) String() string {
	s := fmt.Sprintf("%12d %-13s ds%-3d obj%-6d", e.Cycle, e.Kind, e.DS, e.Obj)
	if e.Dirty {
		s += " dirty"
	}
	return s
}

// EventHook receives trace events synchronously on the runtime's
// single thread. Install with SetEventHook; nil disables the hook.
// The hook must not call back into the runtime.
//
// The hook is the runtime's live event stream; the obs.Tracer passed
// via Config.Tracer receives the same events into a bounded ring for
// Chrome-trace export.
type EventHook func(Event)

// SetEventHook installs (or clears) the trace hook.
func (r *Runtime) SetEventHook(h EventHook) {
	r.hook = h
	r.tracing = r.hook != nil || r.tracer != nil
}

// emit delivers an instant event at the current virtual time. The
// single-bool guard (rather than checking hook and tracer separately)
// keeps emit and emitSpan under the inlining budget, so call sites on
// the fault path pay one predictable branch when tracing is off.
func (r *Runtime) emit(kind EventKind, ds, obj int, dirty bool) {
	if !r.tracing {
		return
	}
	r.deliver(kind, ds, obj, dirty, r.clock.Now(), 0)
}

// emitSpan delivers an event covering [start, now] in virtual time —
// the fetch/prefetch-wait/evict latencies the trace viewer shows as
// horizontal bars.
func (r *Runtime) emitSpan(kind EventKind, ds, obj int, dirty bool, start uint64) {
	if !r.tracing {
		return
	}
	r.deliver(kind, ds, obj, dirty, start, r.clock.Now()-start)
}

func (r *Runtime) deliver(kind EventKind, ds, obj int, dirty bool, start, dur uint64) {
	if r.hook != nil {
		r.hook(Event{Cycle: start + dur, Kind: kind, DS: ds, Obj: obj, Dirty: dirty})
	}
	if r.tracer != nil {
		d := int64(0)
		if dirty {
			d = 1
		}
		r.tracer.Emit(obs.TraceEvent{
			TS:       start / cyclesPerMicro,
			Dur:      dur / cyclesPerMicro,
			Cat:      "farmem",
			Name:     kind.String(),
			TID:      ds,
			Trace:    r.curTrace,
			Arg1Name: "obj", Arg1: int64(obj),
			Arg2Name: "dirty", Arg2: d,
		})
	}
}

// beginRoot opens a distributed root span context if a hub is
// configured and no root is already open. Transports sharing the hub
// pick the context up synchronously (the runtime is single-threaded,
// so every enqueue below the caller runs inside the window) and carry
// it across the wire; runtime events emitted inside the window are
// labeled with the sampled trace ID. Nested causes — a prefetch issued
// while handling a miss, an eviction write-back triggered by a
// prefetch's frame allocation — join the enclosing root, which is what
// makes the exported span tree causal rather than flat. Returns true
// when this call opened the root; pass that to endRoot.
func (r *Runtime) beginRoot() bool {
	if r.hub == nil || r.rootActive {
		return false
	}
	ctx := r.hub.StartTrace()
	r.hub.SetActive(ctx)
	r.rootActive = true
	if ctx.Sampled {
		r.curTrace = ctx.TraceID
	}
	return true
}

// endRoot closes the root span window opened by the beginRoot call
// that returned mine=true; a no-op otherwise.
func (r *Runtime) endRoot(mine bool) {
	if !mine {
		return
	}
	r.hub.ClearActive()
	r.rootActive = false
	r.curTrace = 0
}

// TraceWriter returns an EventHook that renders each event to w, one
// line per event — handy for piping a run's far-memory behaviour into a
// file for inspection.
func TraceWriter(w io.Writer) EventHook {
	return func(e Event) { fmt.Fprintln(w, e) }
}

// EventCounter tallies events by kind; a convenient hook for tests and
// summaries.
type EventCounter struct {
	Counts map[EventKind]int
}

// NewEventCounter creates an empty counter.
func NewEventCounter() *EventCounter {
	return &EventCounter{Counts: make(map[EventKind]int)}
}

// Hook returns the EventHook that feeds the counter.
func (c *EventCounter) Hook() EventHook {
	return func(e Event) { c.Counts[e.Kind]++ }
}
