package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/shardmap"
	"cards/internal/stats"
)

// verb is one kind of call across the farmem -> store seam.
type verb uint8

const (
	verbReadSync verb = iota
	verbReadAsync
	verbWriteSync
	verbWriteAsync
	verbWriteRange
	verbChase
	numVerbs
)

var verbNames = [numVerbs]string{"read_sync", "read_async", "write_sync", "write_async", "write_range", "chase"}

// span is one recorded seam call: sync verbs cover the blocking call,
// async verbs issue to completion callback. parent is the application
// level operation that was current when the call was made.
type span struct {
	verb       verb
	ds, idx    int32
	parent     uint32
	start, end int64 // ns since the log was opened
}

// spanLog collects spans in memory; nothing is written until the
// repetition has been measured.
type spanLog struct {
	t0     time.Time
	parent atomic.Uint32
	mu     sync.Mutex // completions arrive on transport goroutines
	spans  []span
}

func newSpanLog() *spanLog {
	return &spanLog{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// setParent names the application-level operation seam calls made from
// now on belong to.
func (l *spanLog) setParent(op uint32) { l.parent.Store(op) }

func (l *spanLog) record(v verb, ds, idx int, parent uint32, start time.Time) {
	end := time.Now()
	l.mu.Lock()
	l.spans = append(l.spans, span{
		verb: v, ds: int32(ds), idx: int32(idx), parent: parent,
		start: int64(start.Sub(l.t0)), end: int64(end.Sub(l.t0)),
	})
	l.mu.Unlock()
}

// seamMetrics summarises the log: per verb the count and latency
// percentiles, and the share of wall spent inside blocking store calls.
func (l *spanLog) seamMetrics(wall time.Duration) metricMap {
	l.mu.Lock()
	defer l.mu.Unlock()
	var lat [numVerbs]stats.Sample
	var blocked int64
	for _, s := range l.spans {
		lat[s.verb].Observe(float64(s.end-s.start) / 1e3)
		if s.verb == verbReadSync || s.verb == verbWriteSync {
			blocked += s.end - s.start
		}
	}
	m := metricMap{"seam.sync_block_share": ratio(float64(blocked), float64(wall))}
	for v, name := range verbNames {
		m["seam."+name+"_count"] = float64(lat[v].N())
		m["seam."+name+"_p50_us"] = lat[v].Median()
		m["seam."+name+"_p99_us"] = lat[v].Quantile(0.99)
	}
	return m
}

// maxExportedSpans bounds the Chrome trace file; store-fanin records
// 600k spans and a viewer gains nothing from more than this.
const maxExportedSpans = 100_000

// writeChrome writes the spans as Chrome trace_event JSON, one thread
// per verb so overlapping async spans stay readable.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	n := min(len(l.spans), maxExportedSpans)
	events := make([]event, 0, n)
	for _, s := range l.spans[:n] {
		events = append(events, event{
			Name: verbNames[s.verb], Cat: "seam", Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: int(s.verb),
			Args: map[string]any{"ds": s.ds, "idx": s.idx, "parent": s.parent},
		})
	}
	total := len(l.spans)
	l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"traceEvents": events,
		"otherData":   map[string]any{"spans_recorded": total, "spans_written": n},
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// remoteStore is the capability set every far-tier client offers
// (remote.PipelinedClient, remote.Resilient, and the multi-backend
// stores on top of them).
type remoteStore interface {
	farmem.AsyncStore
	farmem.RangeWriteStore
	farmem.AsyncChaseStore
	farmem.Pinger
}

// multiStore adds what shardmap.ShardedStore and replica.Store offer on
// top: per-slice recovery signals and placement.
type multiStore interface {
	remoteStore
	farmem.Recoverable
	farmem.DrainScoper
	SetPolicy(ds int, p shardmap.Policy)
}

// tracedStore is the timing decorator around the farmem.Store seam. It
// forwards every call unchanged and records one span per call.
type tracedStore struct {
	inner remoteStore
	log   *spanLog
}

// tracedMulti is tracedStore for multi-backend stores. It is a separate
// type because farmem detects capabilities by type assertion: wrapping
// a single-backend client in a type with RecoveryEpoch would switch on
// runtime paths the untraced run never takes.
type tracedMulti struct {
	*tracedStore
	multi multiStore
}

// wrapTraced decorates store, choosing the wrapper whose capability set
// equals the store's own; it refuses a store it cannot mirror exactly,
// because a traced run that engages different runtime paths measures a
// different program.
func wrapTraced(store farmem.Store, log *spanLog) (farmem.Store, error) {
	var wrapped farmem.Store
	switch s := store.(type) {
	case multiStore:
		wrapped = &tracedMulti{tracedStore: &tracedStore{inner: s, log: log}, multi: s}
	case remoteStore:
		wrapped = &tracedStore{inner: s, log: log}
	default:
		return nil, fmt.Errorf("tracedStore: %T lacks the far-tier client capabilities", store)
	}
	if got, want := capabilities(wrapped), capabilities(store); !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("tracedStore: wrapping %T changes the detected capabilities from %v to %v", store, want, got)
	}
	return wrapped, nil
}

// capabilities lists the optional surfaces farmem.New and core's
// NewRuntime detect on a store by type assertion.
func capabilities(s farmem.Store) []string {
	var caps []string
	add := func(ok bool, name string) {
		if ok {
			caps = append(caps, name)
		}
	}
	_, ok := s.(farmem.AsyncStore)
	add(ok, "AsyncStore")
	_, ok = s.(farmem.AsyncWriteStore)
	add(ok, "AsyncWriteStore")
	_, ok = s.(farmem.RangeWriteStore)
	add(ok, "RangeWriteStore")
	_, ok = s.(farmem.AsyncChaseStore)
	add(ok, "AsyncChaseStore")
	_, ok = s.(farmem.Pinger)
	add(ok, "Pinger")
	_, ok = s.(farmem.Recoverable)
	add(ok, "Recoverable")
	_, ok = s.(farmem.DrainScoper)
	add(ok, "DrainScoper")
	_, ok = s.(interface {
		SetPolicy(ds int, p shardmap.Policy)
	})
	add(ok, "SetPolicy")
	return caps
}

func (t *tracedStore) ReadObj(ds, idx int, dst []byte) error {
	start, parent := time.Now(), t.log.parent.Load()
	err := t.inner.ReadObj(ds, idx, dst)
	t.log.record(verbReadSync, ds, idx, parent, start)
	return err
}

func (t *tracedStore) WriteObj(ds, idx int, src []byte) error {
	start, parent := time.Now(), t.log.parent.Load()
	err := t.inner.WriteObj(ds, idx, src)
	t.log.record(verbWriteSync, ds, idx, parent, start)
	return err
}

func (t *tracedStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	start, parent := time.Now(), t.log.parent.Load()
	t.inner.IssueRead(ds, idx, dst, func(err error) {
		t.log.record(verbReadAsync, ds, idx, parent, start)
		done(err)
	})
}

func (t *tracedStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	start, parent := time.Now(), t.log.parent.Load()
	t.inner.IssueWrite(ds, idx, src, func(err error) {
		t.log.record(verbWriteAsync, ds, idx, parent, start)
		done(err)
	})
}

func (t *tracedStore) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	start, parent := time.Now(), t.log.parent.Load()
	t.inner.IssueWriteRanges(ds, idx, src, exts, func(err error) {
		t.log.record(verbWriteRange, ds, idx, parent, start)
		done(err)
	})
}

func (t *tracedStore) ChaseCapable() bool { return t.inner.ChaseCapable() }

func (t *tracedStore) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	start, parent := time.Now(), t.log.parent.Load()
	res, err := t.inner.Chase(req)
	t.log.record(verbChase, int(req.DS), int(req.Start), parent, start)
	return res, err
}

func (t *tracedStore) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	start, parent := time.Now(), t.log.parent.Load()
	t.inner.IssueChase(req, func(res rdma.ChaseResult, err error) {
		t.log.record(verbChase, int(req.DS), int(req.Start), parent, start)
		done(res, err)
	})
}

func (t *tracedStore) Ping() error { return t.inner.Ping() }

func (t *tracedMulti) RecoveryEpoch() uint64 { return t.multi.RecoveryEpoch() }

func (t *tracedMulti) ShouldDrain(ds, idx int, sinceEpoch uint64) bool {
	return t.multi.ShouldDrain(ds, idx, sinceEpoch)
}

func (t *tracedMulti) Stranded(ds, idx int) bool { return t.multi.Stranded(ds, idx) }

func (t *tracedMulti) SetPolicy(ds int, p shardmap.Policy) { t.multi.SetPolicy(ds, p) }
