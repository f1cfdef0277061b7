package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cards/internal/obs"
	"cards/internal/remote"
)

const (
	faninWindow   = 64 // ops each connection keeps outstanding
	faninReadPct  = 75
	faninNumDS    = 2
	faninMaxConns = 2
)

// fillPattern writes the reference content of object (ds, idx) into b.
// ds 0 is xorshift noise and ds 1 a byte ramp, so both branches of the
// adaptive compressor run. Writes store the same content the preload
// stored, which makes every read checkable whatever the interleaving.
func fillPattern(b []byte, ds, idx int) {
	if ds == 1 {
		for i := range b {
			b[i] = byte(i + idx)
		}
		return
	}
	r := newRng(int64(idx), 7)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], r.next())
	}
}

// checkPattern reports whether b holds the reference content of
// (ds, idx); scratch is a caller-owned buffer of the same length.
func checkPattern(b, scratch []byte, ds, idx int) bool {
	fillPattern(scratch, ds, idx)
	return bytes.Equal(b, scratch)
}

// faninStore is the part of the pipelined client the load generator
// drives; the traced repetition substitutes the tracedStore decorator.
type faninStore interface {
	IssueRead(ds, idx int, dst []byte, done func(error))
	IssueWrite(ds, idx int, src []byte, done func(error))
}

// faninSlot is one of a connection's outstanding operations.
type faninSlot struct {
	buf     []byte
	ds, idx int
	read    bool
	issued  time.Time
	latUS   float64
	err     error
}

// faninConn drives one connection as a closed loop with faninWindow
// operations outstanding: a slot is reissued as soon as its completion
// has been checked. It returns per-op latencies and the failure count.
func faninConn(st faninStore, r *rng, objs, nOps int) (lat []float64, failed uint64) {
	lat = make([]float64, 0, nOps)
	slots := make([]*faninSlot, faninWindow)
	// free carries slot indexes whose operation has completed; it is
	// sized to the window so a completion callback never blocks.
	free := make(chan int, faninWindow)
	for i := range slots {
		slots[i] = &faninSlot{buf: make([]byte, objBytes)}
		free <- i
	}
	scratch := make([]byte, objBytes)
	retire := func(s *faninSlot) {
		if s.issued.IsZero() {
			return // never used yet
		}
		lat = append(lat, s.latUS)
		if s.err != nil || (s.read && !checkPattern(s.buf, scratch, s.ds, s.idx)) {
			failed++
		}
	}
	for issued := 0; issued < nOps; issued++ {
		i := <-free
		s := slots[i]
		retire(s)
		s.ds, s.idx = r.intn(faninNumDS), r.intn(objs)
		s.read = r.intn(100) < faninReadPct
		done := func(err error) {
			s.latUS = float64(time.Since(s.issued)) / 1e3
			s.err = err
			free <- i
		}
		if s.read {
			s.issued = time.Now()
			st.IssueRead(s.ds, s.idx, s.buf, done)
		} else {
			fillPattern(s.buf, s.ds, s.idx)
			s.issued = time.Now()
			st.IssueWrite(s.ds, s.idx, s.buf, done)
		}
	}
	for range slots {
		retire(slots[<-free])
	}
	return lat, failed
}

// runFanin is one repetition of the server-bound workload: farmem and
// interp are bypassed, min(2, CPUs this worker may use) raw pipelined
// clients (one, when the benchmark has pinned it) each keep a full window
// outstanding against one cardsd.
func runFanin(e *repEnv) (*repResult, error) {
	addr := e.addrs()[0]
	objs, nOps := e.sz.faninObjs, e.sz.faninOps
	conns := min(faninMaxConns, runtime.NumCPU())

	var reg *obs.Registry
	var log *spanLog
	opts := remote.PipelineOpts{}
	if e.spec.Traced {
		reg = obs.NewRegistry()
		log = newSpanLog()
		opts.Obs = reg
		opts.Trace = obs.NewTraceHub(obs.NewTracer(0), obs.NewFlightRecorder(0, 0), 0)
	}
	clients := make([]*remote.PipelinedClient, 0, conns)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	stores := make([]faninStore, conns)
	for i := range stores {
		c, err := remote.DialPipelined(addr, opts)
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		stores[i] = c
		if e.spec.Traced {
			stores[i] = &tracedStore{inner: c, log: log}
		}
	}

	// Preload every object through the first connection, a window at a
	// time; the buffer channel doubles as the completion count.
	var mu sync.Mutex
	var preloadErr error
	bufs := make(chan []byte, faninWindow)
	for i := 0; i < faninWindow; i++ {
		bufs <- make([]byte, objBytes)
	}
	for ds := 0; ds < faninNumDS; ds++ {
		for idx := 0; idx < objs; idx++ {
			buf := <-bufs
			fillPattern(buf, ds, idx)
			clients[0].IssueWrite(ds, idx, buf, func(err error) {
				if err != nil {
					mu.Lock()
					preloadErr = err
					mu.Unlock()
				}
				bufs <- buf
			})
		}
	}
	for i := 0; i < faninWindow; i++ {
		<-bufs
	}
	if preloadErr != nil {
		return nil, fmt.Errorf("preload: %w", preloadErr)
	}
	var before *obs.Snapshot
	if e.spec.Traced {
		before = reg.Snapshot()
	}

	setup, err := e.begin()
	if err != nil {
		return nil, err
	}
	lats := make([][]float64, conns)
	fails := make([]uint64, conns)
	var wg sync.WaitGroup
	for i := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[i], fails[i] = faninConn(stores[i], newRng(e.spec.Seed, uint64(i)), objs, nOps)
		}()
	}
	wg.Wait()
	var failed uint64
	var all []float64
	for i := range lats {
		failed += fails[i]
		all = append(all, lats[i]...)
	}
	res, reg0, err := e.end(setup, uint64(conns*nOps), failed)
	if err != nil {
		return nil, err
	}
	res.MeanOpUS = latencyMetrics(res.Metrics, all)
	if e.spec.Traced {
		res.Metrics.merge(log.seamMetrics(reg0.wall))
		tm, _ := transportMetrics(reg.Snapshot(), before)
		res.Metrics.merge(tm)
		if err := log.writeChrome(e.spec.TraceOut); err != nil {
			return nil, err
		}
	}
	return res, nil
}
