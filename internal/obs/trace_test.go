package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	tr.Emit(TraceEvent{Name: "x"}) // must not panic
	tr.Span("c", "n", 0)()
	if tr.Len() != 0 || tr.Drops() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer not inert")
	}
}

func TestTracerOverflowDropsInsteadOfBlocking(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(TraceEvent{Name: "e", TS: uint64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Drops() != 6 {
		t.Fatalf("Drops = %d, want 6", tr.Drops())
	}
	// The ring keeps the first cap events (bounded history of the run's
	// start), and overflow is visible via the drop counter.
	evs := tr.Events()
	if evs[0].TS != 0 || evs[3].TS != 3 {
		t.Fatalf("ring contents wrong: %+v", evs)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	const goroutines = 8
	const perG = 5000
	tr := NewTracer(goroutines * perG / 2) // force overflow under contention
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tr.Emit(TraceEvent{Cat: "remote", Name: "READ", TID: g, TS: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	if got := uint64(tr.Len()) + tr.Drops(); got != goroutines*perG {
		t.Fatalf("kept+dropped = %d, want %d", got, goroutines*perG)
	}
	if tr.Len() != tr.Cap() {
		t.Fatalf("ring not full after overflow: len=%d cap=%d", tr.Len(), tr.Cap())
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(16)
	tr.Emit(TraceEvent{TS: 10, Dur: 5, Cat: "compile", Name: "dsa", TID: 0})
	tr.Emit(TraceEvent{TS: 20, Cat: "farmem", Name: "fetch", TID: 3,
		Arg1Name: "obj", Arg1: 42, Arg2Name: "dirty", Arg2: 1})
	for i := 0; i < 20; i++ {
		tr.Emit(TraceEvent{TS: uint64(30 + i), Cat: "farmem", Name: "evict"})
	}

	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 16 {
		t.Fatalf("traceEvents = %d, want 16 (ring cap)", len(doc.TraceEvents))
	}
	span := doc.TraceEvents[0]
	if span["ph"] != "X" || span["dur"] != float64(5) || span["name"] != "dsa" {
		t.Fatalf("span event malformed: %v", span)
	}
	inst := doc.TraceEvents[1]
	if inst["ph"] != "i" || inst["s"] != "t" {
		t.Fatalf("instant event malformed: %v", inst)
	}
	args, ok := inst["args"].(map[string]any)
	if !ok || args["obj"] != float64(42) || args["dirty"] != float64(1) {
		t.Fatalf("instant args malformed: %v", inst)
	}
	if doc.OtherData["drops"] != float64(6) {
		t.Fatalf("otherData.drops = %v, want 6", doc.OtherData["drops"])
	}
}

func TestSpanEmitsCompleteEvent(t *testing.T) {
	tr := NewTracer(4)
	tr.Span("compile", "guards", 2)()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	e := evs[0]
	if e.Cat != "compile" || e.Name != "guards" || e.TID != 2 {
		t.Fatalf("span event = %+v", e)
	}
}
