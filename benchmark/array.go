package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"time"

	"cards"
	"cards/internal/obs"
)

// rng is the benchmark's seeded generator (xorshift64*): every input
// stream derives from the --seed value through it, so equal seeds give
// equal inputs on every host.
type rng uint64

func newRng(seed int64, stream uint64) *rng {
	r := rng(uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xBF58476D1CE4E5B9)
	if r == 0 {
		r = 0x2545F4914F6CDD1D
	}
	r.next()
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

const (
	objBytes    = 4096
	elemsPerObj = objBytes / 8
)

// arrayOp is one generated library call: a Set of val, or a Get that
// must return val.
type arrayOp struct {
	idx int
	set bool
	val int64
}

// arrayStream generates the call stream and keeps the oracle: shadow
// holds every value written so far (absent means never written, which
// reads as zero). Objects are drawn uniformly, which fixes the miss
// rate; half of the reads go to an element known to have been written,
// so that a tier returning zeros cannot pass.
type arrayStream struct {
	r      *rng
	objs   int
	setPct int
	filled []int // per object, the element written most recently
	shadow map[int]int64
}

func (s *arrayStream) next() arrayOp {
	o := s.r.intn(s.objs)
	if s.r.intn(100) < s.setPct {
		op := arrayOp{idx: o*elemsPerObj + s.r.intn(elemsPerObj), set: true, val: int64(s.r.next())}
		s.filled[o] = op.idx
		s.shadow[op.idx] = op.val
		return op
	}
	idx := s.filled[o]
	if s.r.intn(2) == 0 {
		idx = o*elemsPerObj + s.r.intn(elemsPerObj)
	}
	return arrayOp{idx: idx, val: s.shadow[idx]}
}

// runtimeSnapshot reads the runtime's metric snapshot through the
// public debug handler's /stats route.
func runtimeSnapshot(rt *cards.Runtime) (*obs.Snapshot, error) {
	rec := httptest.NewRecorder()
	rt.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		return nil, fmt.Errorf("/stats: status %d", rec.Code)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return &s, nil
}

// runArray is one repetition of a library-model workload: a remote
// Array sixteen times the size of the local cache, random calls each
// timed and each checked against the shadow.
func runArray(e *repEnv) (*repResult, error) {
	replicated := e.spec.Workload == wlArrayRW
	objs := e.sz.arrayObjs
	cfg := cards.Config{RemotableMemory: uint64(objs/16) * objBytes, Trace: e.spec.Traced}
	nOps, setPct := e.sz.arrayRdOps, 0
	if replicated {
		cfg.RemoteAddrs, cfg.Replicas, cfg.WriteQuorum = e.addrs(), 2, 2
		nOps, setPct = e.sz.arrayRWOps, 50
	} else {
		cfg.RemoteAddr = e.addrs()[0]
	}
	rt, err := cards.New(cfg)
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	arr, err := cards.NewArray[int64](rt, "bench", objs*elemsPerObj, cards.Remotable)
	if err != nil {
		return nil, err
	}

	s := &arrayStream{
		r: newRng(e.spec.Seed, 0), objs: objs, setPct: setPct,
		filled: make([]int, objs), shadow: make(map[int]int64, objs+nOps),
	}
	// Fill phase: one element per object, so every object exists in the
	// far tier and carries a value the reads can be checked against.
	for o := 0; o < objs; o++ {
		i, v := o*elemsPerObj+s.r.intn(elemsPerObj), int64(s.r.next())
		if err := arr.Set(i, v); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
		s.filled[o], s.shadow[i] = i, v
	}
	var failed uint64
	call := func(op arrayOp) {
		if op.set {
			if err := arr.Set(op.idx, op.val); err != nil {
				failed++
			}
			return
		}
		if got, err := arr.Get(op.idx); err != nil || got != op.val {
			failed++
		}
	}
	for i := 0; i < e.sz.arrayWarm; i++ {
		call(s.next())
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d warm-up calls failed the oracle", failed, e.sz.arrayWarm)
	}
	lat := make([]float64, nOps)
	before, err := runtimeSnapshot(rt)
	if err != nil {
		return nil, err
	}

	setup, err := e.begin()
	if err != nil {
		return nil, err
	}
	for i := range lat {
		op := s.next()
		t0 := time.Now()
		call(op)
		lat[i] = float64(time.Since(t0)) / 1e3
	}
	res, reg, err := e.end(setup, uint64(nOps), failed)
	if err != nil {
		return nil, err
	}
	after, err := runtimeSnapshot(rt)
	if err != nil {
		return nil, err
	}

	m := res.Metrics
	res.MeanOpUS = latencyMetrics(m, lat)
	c := snapshotCounters(after).minus(snapshotCounters(before))
	m.merge(c.metrics(uint64(nOps)))
	res.FetchesPerOp = float64(c[cRemoteFetches]) / float64(nOps)
	if replicated {
		m["replica.write_amp"] = ratio(float64(reg.serverBytesIn), float64(c[cWriteBacks])*objBytes)
	}
	if e.spec.Traced {
		tm, attribUS := transportMetrics(after, before)
		m.merge(tm)
		res.AttribPerOpUS = attribUS / float64(nOps)
		m["budget.runtime_us"] = res.MeanOpUS - res.AttribPerOpUS
	}
	return res, nil
}
