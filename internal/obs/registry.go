// Package obs is the unified observability layer of the CaRDS
// reproduction: a named-metric registry (counters, gauges, power-of-two
// histograms built on the stats primitives) with point-in-time snapshots
// and JSON / Prometheus-text exposition, plus a bounded ring-buffer
// tracer with Chrome trace_event export (trace.go).
//
// Metric names follow the scheme cards_<layer>_<name>, e.g.
// cards_farmem_hits_total or cards_remote_read_ns. Per-entity series
// (one per data structure, one per verb) attach label pairs:
//
//	reg.Counter("cards_farmem_hits_total", "ds", "3")
//
// Registration is get-or-create and concurrency-safe; callers cache the
// returned metric pointer at wiring time so the hot path never touches
// the registry map. All metric types are safe for concurrent use.
package obs

import (
	"sort"
	"strings"
	"sync"

	"cards/internal/stats"
)

// Registry is a named collection of metrics.
//
// The zero value is NOT ready to use; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*stats.Counter
	gauges   map[string]*stats.Gauge
	hists    map[string]*stats.Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*stats.Counter),
		gauges:   make(map[string]*stats.Gauge),
		hists:    make(map[string]*stats.Histogram),
	}
}

// Key renders a metric name plus label pairs ("k", "v", ...) into the
// canonical series key: name{k="v",...}. It is the exact string under
// which Snapshot exposes the series, so Report-style consumers can look
// values up without guessing the format.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter returns the counter registered under the given name and label
// pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *stats.Counter {
	k := Key(name, labels...)
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &stats.Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge registered under the given name and label
// pairs, creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *stats.Gauge {
	k := Key(name, labels...)
	r.mu.RLock()
	g := r.gauges[k]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[k]; g == nil {
		g = &stats.Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram registered under the given name and
// label pairs, creating it on first use.
func (r *Registry) Histogram(name string, labels ...string) *stats.Histogram {
	k := Key(name, labels...)
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		h = &stats.Histogram{}
		r.hists[k] = h
	}
	return h
}

// Bucket is one non-empty histogram bucket: Count observations with
// value <= Le (and greater than the previous bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     uint64   `json:"p50"`
	P99     uint64   `json:"p99"`
	Max     uint64   `json:"max"` // upper bound of the highest non-empty bucket
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every registered series. Maps are
// keyed by the canonical series key (see Key).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the current value of every series.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Load()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Load()
	}
	for k, h := range r.hists {
		s.Histograms[k] = snapshotHistogram(h)
	}
	return s
}

func snapshotHistogram(h *stats.Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		Mean:  h.Mean(),
		P50:   h.ApproxQuantile(0.5),
		P99:   h.ApproxQuantile(0.99),
	}
	for i := 0; i < stats.NumBuckets; i++ {
		if c := h.BucketCount(i); c > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{Le: stats.BucketBound(i), Count: c})
			hs.Max = stats.BucketBound(i)
		}
	}
	return hs
}

// Counter returns the snapshotted value of one counter series (0 when
// the series does not exist).
func (s *Snapshot) Counter(name string, labels ...string) uint64 {
	return s.Counters[Key(name, labels...)]
}

// Gauge returns the snapshotted value of one gauge series (0 when the
// series does not exist).
func (s *Snapshot) Gauge(name string, labels ...string) int64 {
	return s.Gauges[Key(name, labels...)]
}

// Histogram returns the snapshotted state of one histogram series (zero
// value when the series does not exist).
func (s *Snapshot) Histogram(name string, labels ...string) HistogramSnapshot {
	return s.Histograms[Key(name, labels...)]
}

// sortedKeys returns map keys in lexical order for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
