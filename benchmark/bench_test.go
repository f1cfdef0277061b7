package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/remote"
	"cards/internal/replica"
	"cards/internal/shardmap"
)

// checkComplete reports the defined metrics missing from m.
func checkComplete(m metricMap, defs []metricDef) error {
	var missing []string
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not emitted: %v", missing)
	}
	return nil
}

// testSession runs repetitions in-process at smoke scale against real
// cardsd children.
func testSession(t *testing.T) *session {
	t.Helper()
	bin, err := buildCardsd("..")
	if err != nil {
		t.Fatal(err)
	}
	return &session{run: runRep, cardsd: bin, seed: 42, scale: "smoke", traceDir: t.TempDir(), out: &bytes.Buffer{}, cpu: -1}
}

// TestSmoke runs every workload once untraced and once traced, plus a
// one-iteration ladder, and checks the oracles and that every metric
// the catalogue names is really measured somewhere.
func TestSmoke(t *testing.T) {
	s := testSession(t)
	ladder, err := s.run(repSpec{Workload: kindLadder, Scale: s.scale})
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	var arrayReadCPU float64
	for _, w := range workloads {
		o, err := s.oracleFor(w)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := s.measureLayers(w, o, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, r := range []*repResult{lr.untraced, lr.traced} {
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed the oracle", w.name, r.Failed, r.Attempted)
			}
		}
		if err := checkComplete(aggregate([]*repResult{lr.untraced}), endToEnd); err != nil {
			t.Errorf("%s end to end: %v", w.name, err)
		}
		if _, err := os.Stat(s.spec(w, o, true).TraceOut); err != nil && w.name != wlArrayRd && w.name != wlArrayRW {
			t.Errorf("%s: no Chrome trace written: %v", w.name, err)
		}
		switch w.name {
		case wlArrayRd:
			arrayReadCPU = lr.untraced.Metrics[mCPU]
		case wlArrayRW:
			lr.arrayReadCPU = arrayReadCPU
		}
		for name := range layerMetrics(w.name, lr, ladder.Metrics) {
			measured[name] = true
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] {
			t.Errorf("per-layer metric %s is measured by no workload", d.name)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the
// driver reads, and the catalogue, which the program emits, the same.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var gotW, wantW []string
	for _, w := range doc.Workloads {
		gotW = append(gotW, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		if w.gated {
			wantW = append(wantW, w.name+": "+w.why)
		}
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Errorf("workloads differ:\n json      %q\n catalogue %q", gotW, wantW)
	}
	same := func(kind string, got []metric, want []metricDef) {
		var g, w []metric
		g = append(g, got...)
		for _, d := range want {
			w = append(w, metric{d.name, d.unit, d.better, d.bound})
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s metrics differ:\n json      %+v\n catalogue %+v", kind, g, w)
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// corruptingStore flips one byte of every read it completes.
type corruptingStore struct{}

func (corruptingStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	fillPattern(dst, ds, idx)
	dst[len(dst)/2] ^= 0x40
	done(nil)
}

func (corruptingStore) IssueWrite(ds, idx int, src []byte, done func(error)) { done(nil) }

// TestOracleCatchesCorruption: a corrupted payload must surface as
// failed operations and as a failing exit.
func TestOracleCatchesCorruption(t *testing.T) {
	lat, failed := faninConn(corruptingStore{}, newRng(1, 0), 16, 1000)
	if len(lat) != 1000 {
		t.Fatalf("recorded %d latencies for 1000 ops", len(lat))
	}
	if failed == 0 || failed == 1000 {
		t.Fatalf("corrupted reads: %d of 1000 ops failed, want every read and no write", failed)
	}

	// A compiled run whose checksum is wrong fails as a whole.
	s := testSession(t)
	w, _ := findWorkload(wlChase)
	o, err := s.oracleFor(w)
	if err != nil {
		t.Fatal(err)
	}
	o.checksum ^= 1
	var out bytes.Buffer
	s.out = &out
	minimal := *s
	minimal.run = func(spec repSpec) (*repResult, error) {
		r, err := runRep(spec)
		if err == nil && r.Failed != r.Attempted {
			t.Errorf("wrong checksum: %d of %d derefs failed, want all", r.Failed, r.Attempted)
		}
		return r, err
	}
	reps, err := minimal.measureUntraced(w, o, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := aggregate(reps)[mFailed]; got != 1 {
		t.Errorf("failed_share = %v, want 1", got)
	}

	// And driver mode reports it: correct=false and a non-nil error,
	// which main turns into a non-zero exit.
	failing := *s
	failing.run = func(spec repSpec) (*repResult, error) {
		r, err := runRep(spec)
		if r != nil {
			r.Failed = 1
		}
		return r, err
	}
	fan, _ := findWorkload(wlFanin)
	if err := driverMain(&failing, fan, 0, false); err == nil {
		t.Error("driverMain returned nil for a run with failed operations")
	}
	var res driverResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		t.Fatalf("driver output %q: %v", out.String(), err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("driver result %+v, want correct=false and failed>0", res)
	}
}

// productionStacks builds, over in-process servers, each store shape
// farmem is handed in production.
func productionStacks(t *testing.T) map[string]farmem.Store {
	t.Helper()
	dial := func() *remote.Resilient {
		srv := remote.NewServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := remote.DialResilient(addr, remote.DialConfig{Timeout: prodTimeout, RetryMax: prodRetryMax})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	sharded, err := shardmap.NewSharded([]farmem.Store{dial(), dial()}, shardmap.Options{BreakerThreshold: prodBreakerThreshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sharded.Close() })
	replicated, err := replica.New([]farmem.Store{dial(), dial()}, replica.Options{Replicas: 2, WriteQuorum: 2, BreakerThreshold: prodBreakerThreshold})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { replicated.Close() })
	return map[string]farmem.Store{"resilient": dial(), "sharded": sharded, "replicated": replicated}
}

// TestTracedStoreForwardsEveryCapability: the decorator must expose
// exactly what the store it wraps exposes — every capability farmem
// detects by type assertion, and none the store lacks.
func TestTracedStoreForwardsEveryCapability(t *testing.T) {
	all := []string{"AsyncStore", "AsyncWriteStore", "RangeWriteStore", "AsyncChaseStore", "Pinger", "Recoverable", "DrainScoper", "SetPolicy"}
	for name, store := range productionStacks(t) {
		wrapped, err := wrapTraced(store, newSpanLog())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		got, want := capabilities(wrapped), capabilities(store)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: wrapped store offers %v, the store itself %v", name, got, want)
		}
		if name != "resilient" && !reflect.DeepEqual(got, all) {
			t.Errorf("%s: multi-backend store offers %v, want all of %v", name, got, all)
		}
		if name == "resilient" && !reflect.DeepEqual(got, all[:5]) {
			t.Errorf("%s: single-backend client offers %v, want %v", name, got, all[:5])
		}
	}
	if _, err := wrapTraced(farmem.NewMapStore(), newSpanLog()); err == nil {
		t.Error("wrapTraced accepted a store without the far-tier capabilities")
	}
}

// TestTracedStoreRecordsEveryVerb drives each seam call through the
// decorator against a real client and checks data and spans.
func TestTracedStoreRecordsEveryVerb(t *testing.T) {
	log := newSpanLog()
	log.setParent(7)
	wrapped, err := wrapTraced(productionStacks(t)["resilient"], log)
	if err != nil {
		t.Fatal(err)
	}
	ts := wrapped.(*tracedStore)
	obj := make([]byte, objBytes)
	fillPattern(obj, 0, 5)
	wait := func(issue func(done func(error))) {
		t.Helper()
		ch := make(chan error, 1)
		issue(func(err error) { ch <- err })
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("completion callback never ran")
		}
	}
	if err := ts.WriteObj(0, 5, obj); err != nil {
		t.Fatal(err)
	}
	wait(func(done func(error)) { ts.IssueWrite(0, 6, obj, done) })
	patched := append([]byte(nil), obj...)
	copy(patched[64:72], "patched!")
	wait(func(done func(error)) {
		ts.IssueWriteRanges(0, 6, patched, []rdma.Extent{{Off: 64, Len: 8}}, done)
	})
	got := make([]byte, objBytes)
	if err := ts.ReadObj(0, 5, got); err != nil || !bytes.Equal(got, obj) {
		t.Fatalf("ReadObj through the decorator: err %v, equal %v", err, bytes.Equal(got, obj))
	}
	wait(func(done func(error)) { ts.IssueRead(0, 6, got, done) })
	if !bytes.Equal(got, patched) {
		t.Fatal("IssueRead through the decorator did not return the range-patched object")
	}
	if err := ts.Ping(); err != nil {
		t.Fatal(err)
	}
	if !ts.ChaseCapable() {
		t.Fatal("decorator hides the client's chase capability")
	}
	req := rdma.ChaseReq{DS: 0, Start: 5, ObjSize: objBytes, NextOff: 0, Hops: 1}
	if res, err := ts.Chase(req); err != nil || len(res.Hops) != 1 {
		t.Fatalf("Chase through the decorator: %v, %d hops", err, len(res.Hops))
	}
	ch := make(chan error, 1)
	ts.IssueChase(req, func(_ rdma.ChaseResult, err error) { ch <- err })
	if err := <-ch; err != nil {
		t.Fatal(err)
	}

	var verbs []string
	for _, s := range log.spans {
		verbs = append(verbs, verbNames[s.verb])
		if s.parent != 7 || s.end < s.start {
			t.Errorf("span %+v: want parent 7 and end >= start", s)
		}
	}
	sort.Strings(verbs)
	want := "chase chase read_async read_sync write_async write_range write_sync"
	if strings.Join(verbs, " ") != want {
		t.Errorf("recorded verbs %q, want %q", strings.Join(verbs, " "), want)
	}
	m := log.seamMetrics(time.Second)
	if m["seam.read_sync_count"] != 1 || m["seam.chase_count"] != 2 || m["seam.sync_block_share"] <= 0 {
		t.Errorf("seam metrics %v", m)
	}
}
