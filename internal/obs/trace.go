package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"cards/internal/stats"
)

// TraceEvent is one traced occurrence on some layer's timeline.
// Timestamps and durations are in microseconds — virtual (cycle-derived)
// for the simulated runtime, wall-clock for the network and compiler
// layers; each layer is a distinct category so the two never share a
// track. Dur == 0 means an instant event. Up to two small integer
// arguments ride along without allocation.
type TraceEvent struct {
	TS                 uint64 // microseconds since the layer's epoch
	Dur                uint64 // microseconds; 0 = instant
	Cat                string // layer: "farmem", "remote", "compile", ...
	Name               string // event name: "fetch", "READ", pass name, ...
	TID                int    // track within the category: DS id, connection id, ...
	Trace              uint64 // distributed trace ID; 0 = not part of a trace
	Arg1Name, Arg2Name string
	Arg1, Arg2         int64
}

// Tracer is a bounded ring-buffer event sink. Any number of layers
// emit into it concurrently and the ring never blocks: when full,
// events are dropped and counted instead. It exports; it does not
// stream — the runtime's live event stream is farmem's event hook.
//
// A nil *Tracer is valid and inert: Emit on nil is a no-op, so call
// sites need no guards beyond passing the tracer around.
type Tracer struct {
	mu    sync.Mutex
	ring  []TraceEvent
	cap   int
	drops stats.Counter
	start time.Time
}

// DefaultTraceCap is the ring capacity used when NewTracer is given a
// non-positive capacity (64Ki events, ~6 MiB).
const DefaultTraceCap = 1 << 16

// NewTracer creates a tracer whose ring holds up to capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{
		ring:  make([]TraceEvent, 0, capacity),
		cap:   capacity,
		start: time.Now(),
	}
}

// Now returns the wall-clock microseconds elapsed since the tracer was
// created — the timestamp base for wall-time layers.
func (t *Tracer) Now() uint64 {
	return uint64(time.Since(t.start).Microseconds())
}

// Emit records one event into the ring. A full ring drops the event
// and increments the drop counter; Emit never blocks on capacity.
func (t *Tracer) Emit(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, ev)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	t.drops.Inc()
}

// Span starts a wall-clock span in the given category and returns the
// function that closes it, emitting a complete event covering the
// elapsed time. Used for the compiler's per-pass timings:
//
//	done := tracer.Span("compile", "dsa", 0)
//	... run the pass ...
//	done()
func (t *Tracer) Span(cat, name string, tid int) func() {
	if t == nil {
		return func() {}
	}
	start := t.Now()
	return func() {
		t.Emit(TraceEvent{TS: start, Dur: t.Now() - start, Cat: cat, Name: name, TID: tid})
	}
}

// Len returns the number of events currently buffered.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return t.cap
}

// Drops returns the number of events rejected by a full ring.
func (t *Tracer) Drops() uint64 {
	if t == nil {
		return 0
	}
	return t.drops.Load()
}

// Events returns a copy of the buffered events in emission order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.ring))
	copy(out, t.ring)
	return out
}

// Reset discards buffered events and the drop count.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring = t.ring[:0]
	t.mu.Unlock()
	t.drops.Reset()
}

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (the subset understood by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat"`
	Ph    string           `json:"ph"`
	TS    uint64           `json:"ts"`
	Dur   *uint64          `json:"dur,omitempty"`
	PID   int              `json:"pid"`
	TID   int              `json:"tid"`
	Scope string           `json:"s,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// chromeTrace is the JSON Object Format wrapper; Perfetto and
// chrome://tracing both accept it and ignore unknown top-level fields.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]uint64 `json:"otherData,omitempty"`
}

// WriteChromeTrace exports the buffered events as Chrome trace_event
// JSON: complete ("X") events for spans, thread-scoped instant ("i")
// events otherwise. The drop count, when non-zero, is recorded under
// otherData.drops.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	evs := t.Events()
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(evs)),
		DisplayTimeUnit: "ms",
	}
	for _, ev := range evs {
		ce := chromeEvent{
			Name: ev.Name,
			Cat:  ev.Cat,
			TS:   ev.TS,
			PID:  1,
			TID:  ev.TID,
		}
		if ev.Dur > 0 {
			d := ev.Dur
			ce.Ph, ce.Dur = "X", &d
		} else {
			ce.Ph, ce.Scope = "i", "t"
		}
		if ev.Arg1Name != "" || ev.Trace != 0 {
			ce.Args = make(map[string]int64, 3)
			if ev.Arg1Name != "" {
				ce.Args[ev.Arg1Name] = ev.Arg1
				if ev.Arg2Name != "" {
					ce.Args[ev.Arg2Name] = ev.Arg2
				}
			}
			// The trace ID links causally-related spans across timebases
			// (virtual-clock farmem events vs wall-clock remote/server
			// spans), where a shared timeline position is meaningless.
			if ev.Trace != 0 {
				ce.Args["trace"] = int64(ev.Trace)
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	if d := t.Drops(); d > 0 {
		out.OtherData = map[string]uint64{"drops": d}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
