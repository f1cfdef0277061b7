package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestKey(t *testing.T) {
	cases := []struct {
		name   string
		labels []string
		want   string
	}{
		{"cards_farmem_hits_total", nil, "cards_farmem_hits_total"},
		{"cards_farmem_hits_total", []string{"ds", "3"}, `cards_farmem_hits_total{ds="3"}`},
		{"m", []string{"a", "x", "b", "y"}, `m{a="x",b="y"}`},
		{"m", []string{"a", `q"q`}, `m{a="q\"q"}`},
	}
	for _, c := range cases {
		if got := Key(c.name, c.labels...); got != c.want {
			t.Errorf("Key(%q, %v) = %q, want %q", c.name, c.labels, got, c.want)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("cards_test_total", "ds", "0")
	c2 := r.Counter("cards_test_total", "ds", "0")
	if c1 != c2 {
		t.Fatal("same series returned distinct counters")
	}
	if c3 := r.Counter("cards_test_total", "ds", "1"); c3 == c1 {
		t.Fatal("distinct labels returned the same counter")
	}
	c1.Add(7)
	r.Gauge("cards_test_gauge").Set(-4)
	r.Histogram("cards_test_ns").Observe(100)

	s := r.Snapshot()
	if got := s.Counter("cards_test_total", "ds", "0"); got != 7 {
		t.Fatalf("snapshot counter = %d, want 7", got)
	}
	if got := s.Gauge("cards_test_gauge"); got != -4 {
		t.Fatalf("snapshot gauge = %d, want -4", got)
	}
	h := s.Histogram("cards_test_ns")
	if h.Count != 1 || h.Sum != 100 {
		t.Fatalf("snapshot histogram = %+v", h)
	}
	if len(h.Buckets) != 1 || h.Buckets[0].Le != 128 || h.Buckets[0].Count != 1 {
		t.Fatalf("histogram buckets = %+v, want one bucket le=128", h.Buckets)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("cards_test_total").Inc()
				r.Histogram("cards_test_ns", "verb", "READ").Observe(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counter("cards_test_total"); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("cards_remote_errors_total").Add(3)
	r.Gauge("cards_remote_inflight").Set(2)
	h := r.Histogram("cards_remote_read_ns", "verb", "READ")
	h.Observe(1)
	h.Observe(100)
	h.Observe(5000)

	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cards_remote_errors_total counter",
		"cards_remote_errors_total 3",
		"# TYPE cards_remote_inflight gauge",
		"cards_remote_inflight 2",
		"# TYPE cards_remote_read_ns histogram",
		`cards_remote_read_ns_bucket{verb="READ",le="1"} 1`,
		`cards_remote_read_ns_bucket{verb="READ",le="128"} 2`,
		`cards_remote_read_ns_bucket{verb="READ",le="8192"} 3`,
		`cards_remote_read_ns_bucket{verb="READ",le="+Inf"} 3`,
		`cards_remote_read_ns_sum{verb="READ"} 5101`,
		`cards_remote_read_ns_count{verb="READ"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("cards_x_total").Add(5)
	r.Histogram("cards_x_ns").Observe(42)
	var b bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatalf("stats JSON does not round-trip: %v", err)
	}
	if back.Counters["cards_x_total"] != 5 {
		t.Fatalf("round-tripped counter = %d, want 5", back.Counters["cards_x_total"])
	}
	if back.Histograms["cards_x_ns"].Count != 1 {
		t.Fatalf("round-tripped histogram = %+v", back.Histograms["cards_x_ns"])
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("cards_d_total").Add(11)
	srv := httptest.NewServer(Handler(func() *Snapshot { return r.Snapshot() }))
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return b.String(), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.Contains(body, "cards_d_total 11") {
		t.Fatalf("/metrics body = %q", body)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/metrics content type = %q", ctype)
	}

	body, ctype = get("/stats")
	if ctype != "application/json" {
		t.Fatalf("/stats content type = %q", ctype)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if s.Counters["cards_d_total"] != 11 {
		t.Fatalf("/stats counter = %d, want 11", s.Counters["cards_d_total"])
	}
}
