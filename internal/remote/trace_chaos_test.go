package remote

import (
	"testing"
	"time"

	"cards/internal/faultnet"
	"cards/internal/obs"
	"cards/internal/testutil"
)

// TestTraceChaosRecorderBound hammers a traced pipelined session
// through a fault proxy until the stream has been cut 1000+ times. The
// flight recorder is always-on, so it must hold its retention bound
// (cur + prev window ≤ 2K) the whole way and own no goroutines (the
// leak checker would catch any); ops replayed across reconnects must
// surface their retry history as attempt labels — Attempts > 1 on the
// recorded op and an attempts arg > 1 on the emitted client span.
func TestTraceChaosRecorderBound(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Store.Write(1, 7, []byte{0xAB, 0xCD, 0xEF, 0x01})

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:          11,
		CutEveryBytes: 300, // a couple of ops per connection life
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Small K and a fast window so retention and rotation are both
	// exercised hard within the run.
	const k = 8
	rec := obs.NewFlightRecorder(k, 25*time.Millisecond)
	hub := obs.NewTraceHub(obs.NewTracer(0), rec, obs.SampleAll)
	hub.SetActive(hub.StartTrace())
	defer hub.ClearActive()

	opts := PipelineOpts{
		Timeout:   time.Second,
		RetryMax:  100,
		RetryBase: 200 * time.Microsecond,
		RetryCap:  time.Millisecond,
		Seed:      3,
		Trace:     hub,
	}
	// The proxy may cut mid-handshake; the dial retries under the same
	// budget as later reconnects.
	c, err := DialPipelined(proxy.Addr(), opts)
	if err != nil {
		t.Fatalf("pipelined dial through proxy: %v", err)
	}
	defer c.Close()

	const wantCuts = 1000
	dst := make([]byte, 4)
	for ops := 0; proxy.Cuts() < wantCuts; ops++ {
		if ops == 200_000 {
			t.Fatalf("only %d cuts after %d ops", proxy.Cuts(), ops)
		}
		// Reads replay transparently across reconnects (idempotent), so
		// every completed op reaches the recorder with its attempt count.
		if err := c.ReadObj(1, 7, dst); err != nil {
			t.Fatalf("read %d: %v", ops, err)
		}
		if n := rec.Len(); n > 2*k {
			t.Fatalf("flight recorder exceeded its bound after %d ops: %d records > 2K=%d",
				ops, n, 2*k)
		}
	}

	if rec.Offers() == 0 {
		t.Fatal("no op ever reached the recorder")
	}
	maxAttempts := 0
	for _, op := range rec.Snapshot() {
		if op.TraceID == 0 {
			t.Errorf("recorded op %s ds%d[%d] has no trace ID", op.Op, op.DS, op.Idx)
		}
		if op.Attempts > maxAttempts {
			maxAttempts = op.Attempts
		}
	}
	if maxAttempts < 2 {
		t.Error("1000+ cuts but no recorded op carries an attempts label > 1")
	}
	spanRetried := false
	for _, ev := range hub.Tracer.Events() {
		if ev.Cat == "remote" && ev.Arg1Name == "attempts" && ev.Arg1 > 1 {
			spanRetried = true
			break
		}
	}
	if !spanRetried {
		t.Error("no client span carries an attempts arg > 1")
	}
}
