package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// TestServerObsConcurrent drives a shared Server from many concurrent
// connections, each served by its own goroutine, all emitting into one
// registry and one small ring tracer. Run under -race this is the
// satellite coverage for concurrent Tracer.Emit from the remote server's
// per-connection goroutines.
func TestServerObsConcurrent(t *testing.T) {
	const (
		conns    = 8
		perConn  = 200
		traceCap = 64 // far smaller than conns*perConn: forces drops
	)
	tr := obs.NewTracer(traceCap)
	reg := obs.NewRegistry()
	srv := NewServerWith(reg, tr)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := DialPipelined(addr, PipelineOpts{})
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			buf := make([]byte, 64)
			for i := 0; i < perConn; i++ {
				if err := cl.WriteObj(c, i, []byte(fmt.Sprintf("obj-%d-%d", c, i))); err != nil {
					errs <- err
					return
				}
				if err := cl.ReadObj(c, i, buf); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	const total = conns * perConn
	if r, w := srv.Counts(); r != total || w != total {
		t.Fatalf("Counts() = (%d, %d), want (%d, %d)", r, w, total, total)
	}
	// A worker drops the in-flight gauge after its reply is on the wire,
	// so the last client can be back here first: let the gauge settle.
	for deadline := time.Now().Add(5 * time.Second); reg.Gauge(MetricInflight).Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	snap := srv.ObsSnapshot()
	if got := snap.Histogram(MetricBatchReads).Sum; got != total {
		t.Errorf("%s sum = %d, want %d", MetricBatchReads, got, total)
	}
	if got := snap.Histogram(MetricReadNS).Count; got != total {
		t.Errorf("%s count = %d, want %d", MetricReadNS, got, total)
	}
	if got := snap.Histogram(MetricWriteNS).Count; got != total {
		t.Errorf("%s count = %d, want %d", MetricWriteNS, got, total)
	}
	if got := snap.Gauge(MetricResidentObjects); got != total {
		t.Errorf("%s = %d, want %d", MetricResidentObjects, got, total)
	}
	if got := snap.Gauge(MetricInflight); got != 0 {
		t.Errorf("%s = %d after drain, want 0", MetricInflight, got)
	}
	if got := snap.Counter(MetricBytesIn); got == 0 {
		t.Error("no wire bytes counted in")
	}

	// Every request emitted exactly one span; the tiny ring kept the
	// first traceCap and dropped (without blocking) the rest.
	if kept, drops := tr.Len(), tr.Drops(); kept != traceCap || kept+int(drops) != 2*total {
		t.Fatalf("ring kept %d dropped %d, want %d kept and %d total",
			kept, drops, traceCap, 2*total)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != traceCap {
		t.Fatalf("exported %d events, want %d", len(doc.TraceEvents), traceCap)
	}
	for _, ev := range doc.TraceEvents {
		if ev["cat"] != "remote" {
			t.Fatalf("unexpected category %v", ev["cat"])
		}
	}
}

// TestClientObs checks the client-side mirror series.
func TestClientObs(t *testing.T) {
	reg := obs.NewRegistry()
	_, cl := startPipelined(t, PipelineOpts{Obs: reg})
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteObj(1, 2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 5)
	if err := cl.ReadObj(1, 2, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst) != "hello" {
		t.Fatalf("read back %q", dst)
	}
	snap := reg.Snapshot()
	// The ping is an empty read batch: it rides the read series.
	if got := snap.Histogram(MetricClientReadNS).Count; got != 2 {
		t.Errorf("%s count = %d, want 2", MetricClientReadNS, got)
	}
	if got := snap.Histogram(MetricClientWriteNS).Count; got != 1 {
		t.Errorf("%s count = %d, want 1", MetricClientWriteNS, got)
	}
	if snap.Counter(MetricBytesOut) == 0 || snap.Counter(MetricBytesIn) == 0 {
		t.Error("client wire byte counters empty")
	}
}

// TestWireAccountingCoversEveryVerb: cards_wire_bytes_total{verb=...}
// accounts for every frame of a session, on both ends — a session
// issues all three requests, the two the epoch modifier applies to
// also stamped, plus a rejected request, and the per-verb counters must
// sum to bytes_in + bytes_out less the hello exchange (the only frames
// with no verb of their own): the seven verbs and the three stamped
// forms, nothing under verb=other.
func TestWireAccountingCoversEveryVerb(t *testing.T) {
	const helloWire = 2 * (5 + rdma.HelloSize) // HELLO + OK, header included
	wantVerbs := []string{
		"READBATCH-C", "DATABATCH-C", "WRITEBATCH-C", "ACKBATCH-C", "CHASEBATCH", "CHASEDATA", "ERRTAG",
		"READBATCH-C+EPOCH", "DATABATCH-C+EPOCH", "WRITEBATCH-C+EPOCH",
	}
	for name, opts := range map[string]PipelineOpts{"compact": {}, "uncompressed": {Compression: "off"}} {
		t.Run(name, func(t *testing.T) {
			creg := obs.NewRegistry()
			opts.Obs = creg
			srv, cl := startPipelined(t, opts)

			img := compressible(512)
			if err := cl.WriteObj(1, 0, img); err != nil {
				t.Fatal(err)
			}
			if err := cl.ReadObj(1, 0, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
			if err := writeEpoch(cl, 2, 0, 1, img); err != nil {
				t.Fatal(err)
			}
			if _, err := readEpoch(cl, 2, 0, make([]byte, 512)); err != nil {
				t.Fatal(err)
			}
			errCh := make(chan error, 1)
			exts := []rdma.Extent{{Off: 8, Len: 8}}
			cl.IssueWriteRanges(1, 0, img, exts, func(err error) { errCh <- err })
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			cl.IssueWriteRangesEpoch(2, 0, 2, img, exts, func(err error) { errCh <- err })
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Chase(rdma.ChaseReq{DS: 1, Start: 0, ObjSize: 512, NextOff: 8, Hops: 4}); err != nil {
				t.Fatal(err)
			}
			if err := cl.ReadObj(1, 0, make([]byte, rdma.MaxFrame)); err == nil {
				t.Fatal("oversized read should be rejected with an ERRTAG")
			}
			cl.Close()
			srv.Close()

			for end, snap := range map[string]*obs.Snapshot{"client": creg.Snapshot(), "server": srv.ObsSnapshot()} {
				var byVerb uint64
				verbs := 0
				for key, n := range snap.Counters {
					if strings.HasPrefix(key, MetricWireBytes+"{") && n > 0 {
						byVerb += n
						verbs++
					}
				}
				total := snap.Counter(MetricBytesIn) + snap.Counter(MetricBytesOut)
				if byVerb != total-helloWire {
					t.Errorf("%s: per-verb wire bytes sum to %d, bytes_in+bytes_out-hello = %d",
						end, byVerb, total-helloWire)
				}
				if snap.Counter(MetricWireBytes, "verb", "other") != 0 {
					t.Errorf("%s: %d bytes fell through to verb=other", end,
						snap.Counter(MetricWireBytes, "verb", "other"))
				}
				// Acks share a verb: ACKBATCH-C is never stamped.
				for _, v := range wantVerbs {
					if snap.Counter(MetricWireBytes, "verb", v) == 0 {
						t.Errorf("%s: no bytes under verb=%s", end, v)
					}
				}
				if verbs != len(wantVerbs) {
					t.Errorf("%s: %d verbs carried bytes, want %d", end, verbs, len(wantVerbs))
				}
			}
		})
	}
}
