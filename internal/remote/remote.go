// Package remote implements the remote memory node: a server that owns
// the far tier of objects keyed by (data structure, object index), and a
// client that implements farmem.Store over the rdma wire protocol. This
// is the process pair the paper runs on two CloudLab machines — memory
// server on one, application on the other.
//
// The server is concurrency-safe (one goroutine per connection, plus a
// per-connection worker pool answering READBATCH frames out of order).
// Two clients are provided: Client serializes one round trip at a time
// (the synchronous fault path of the runtime), while PipelinedClient
// keeps a bounded window of tagged requests in flight, coalesces queued
// frames into single doorbell writes, and implements farmem.AsyncStore
// so prefetchers can issue a whole lookahead window without blocking.
package remote

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// ObjectStore is the server-side keyed object storage. Every object
// optionally carries a u64 epoch stamp (the FeatEpoch replication
// extension): epoch-stamped writes apply conditionally so a resync
// replaying stale images can never clobber a newer write, and
// epoch-stamped reads report the stored stamp so a client can tell a
// current image from a stale backup.
type ObjectStore struct {
	mu sync.RWMutex
	m  map[[2]uint32][]byte
	ep map[[2]uint32]uint64
}

// NewObjectStore creates an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{m: make(map[[2]uint32][]byte), ep: make(map[[2]uint32]uint64)}
}

// Read copies the object into a fresh buffer of the requested size
// (zero-filled when absent or shorter).
func (s *ObjectStore) Read(ds, idx, size uint32) []byte {
	out := make([]byte, size)
	s.ReadInto(ds, idx, out)
	return out
}

// ReadInto copies the object into dst (zero-filling the tail when the
// object is absent or shorter) — the allocation-free gather path the
// batch workers use to fill reply buffers in place.
func (s *ObjectStore) ReadInto(ds, idx uint32, dst []byte) {
	s.mu.RLock()
	n := copy(dst, s.m[[2]uint32{ds, idx}])
	s.mu.RUnlock()
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
}

// Write stores a copy of data.
func (s *ObjectStore) Write(ds, idx uint32, data []byte) {
	s.mu.Lock()
	s.putLocked([2]uint32{ds, idx}, data)
	s.mu.Unlock()
}

// putLocked stores a copy of data under k (caller holds mu for
// writing). A resident image of the same length is overwritten in
// place: stored slices never leave the store — every reader copies out
// under the lock — so only a size change needs a fresh allocation.
func (s *ObjectStore) putLocked(k [2]uint32, data []byte) {
	if obj, ok := s.m[k]; ok && len(obj) == len(data) {
		copy(obj, data)
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.m[k] = cp
}

// WriteEpoch stores a copy of data stamped with epoch iff epoch is at
// least the stored stamp, and reports whether it applied. Equal epochs
// apply (write-back reissues after an uncertain ack carry the same
// stamp and must land); older epochs are stale resync images and are
// dropped. The compare-and-store is atomic under the store lock, so a
// live write and a concurrent anti-entropy replay serialize correctly
// whichever order they arrive.
func (s *ObjectStore) WriteEpoch(ds, idx uint32, epoch uint64, data []byte) bool {
	k := [2]uint32{ds, idx}
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.ep[k] {
		return false
	}
	s.putLocked(k, data)
	s.ep[k] = epoch
	return true
}

// ReadEpochInto is ReadInto returning the object's stored epoch stamp
// (0 when absent or never epoch-stamped). The copy and the stamp read
// happen under one lock acquisition so the pair is a consistent
// snapshot.
func (s *ObjectStore) ReadEpochInto(ds, idx uint32, dst []byte) uint64 {
	k := [2]uint32{ds, idx}
	s.mu.RLock()
	n := copy(dst, s.m[k])
	epoch := s.ep[k]
	s.mu.RUnlock()
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return epoch
}

// Epoch returns the stored epoch stamp for an object (0 when absent).
func (s *ObjectStore) Epoch(ds, idx uint32) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ep[[2]uint32{ds, idx}]
}

// Keys returns every stored object key — test and resync-verification
// support.
func (s *ObjectStore) Keys() [][2]uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([][2]uint32, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	return keys
}

// Len returns the number of stored objects.
func (s *ObjectStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Server serves the far-memory protocol on a listener.
type Server struct {
	Store *ObjectStore

	// BatchWorkers is the number of goroutines per connection handling
	// READBATCH frames; batches are served concurrently and may be
	// answered out of order (tags route the replies). <= 0 uses
	// DefaultBatchWorkers. Set before Listen/ServeConn.
	BatchWorkers int

	// ConnWrap, when non-nil, wraps every accepted connection before it
	// is served — the hook cardsd's -chaos flag uses to interpose the
	// faultnet chaos layer. Set before Listen.
	ConnWrap func(io.ReadWriteCloser) io.ReadWriteCloser

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	conns  map[io.ReadWriteCloser]struct{}
	wg     sync.WaitGroup

	reg     *obs.Registry
	tracer  *obs.Tracer
	metrics *serverMetrics
	cpolicy compressPolicy // per-DS adaptive compression state (compact tier)
	nextCon atomic.Int64
	epoch   time.Time // base for the RecvUS server stamps
}

// DefaultBatchWorkers is the per-connection READBATCH concurrency.
const DefaultBatchWorkers = 4

// connBufSize sizes the buffered reader each side puts under its frame
// loop and the writer the server assembles replies in. It holds several
// 4 KiB-object frames; a frame larger than the buffer bypasses it (bufio
// reads and writes oversized spans directly), so it bounds memory per
// connection, not frame size.
const connBufSize = 32 << 10

// ServerFeatures is the feature word the server answers to a feature
// PING: this server speaks the tagged/batch extension (reads and
// writes), can switch the session to checksummed frames, can carry
// the trace extension (span context in, server timestamps out) on every
// tagged frame, serves the epoch-stamped verbs the replication layer
// uses, executes offloaded pointer-chase traversal programs, accepts
// the compact bit-packed batch frames (including range write-back),
// and will compress reply segments for sessions that ask for it.
const ServerFeatures = rdma.FeatBatch | rdma.FeatCRC | rdma.FeatWriteBatch | rdma.FeatTrace | rdma.FeatEpoch | rdma.FeatChase | rdma.FeatCompact | rdma.FeatCompress

// NewServer creates a server with an empty store and a private metric
// registry.
func NewServer() *Server { return NewServerWith(nil, nil) }

// NewServerWith creates a server publishing into reg (nil for a private
// registry) and, when tr is non-nil, emitting one trace span per served
// request into the ring.
func NewServerWith(reg *obs.Registry, tr *obs.Tracer) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Server{
		Store:   NewObjectStore(),
		reg:     reg,
		tracer:  tr,
		metrics: newServerMetrics(reg),
		epoch:   time.Now(),
	}
}

// batchJob carries one READBATCH/WRITEBATCH frame to the worker pool
// together with its socket receive time, so the reply stamp can split
// queue wait (receive to worker pickup) from service time.
type batchJob struct {
	f    rdma.Frame
	recv time.Time
}

// stamp fills a tagged reply's trace extension with the server-side
// timestamps when the session negotiated FeatTrace (no-op otherwise).
// Every tagged reply of such a session must carry the fixed-size
// extension — the client's framing depends on it — so error replies get
// stamped too.
func (s *Server) stamp(resp *rdma.Frame, trace bool, recv, dispatch time.Time) {
	if !trace {
		return
	}
	resp.SetServerStamp(
		uint64(recv.Sub(s.epoch).Microseconds()),
		uint32(dispatch.Sub(recv).Microseconds()),
		uint32(time.Since(dispatch).Microseconds()),
	)
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the
// bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		var rwc io.ReadWriteCloser = conn
		if s.ConnWrap != nil {
			rwc = s.ConnWrap(rwc)
		}
		s.trackConn(rwc, true)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.trackConn(rwc, false)
			s.ServeConn(rwc)
		}()
	}
}

// trackConn registers accepted connections so Drain can force-close the
// stragglers once the drain timeout expires.
func (s *Server) trackConn(conn io.ReadWriteCloser, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.conns == nil {
			s.conns = make(map[io.ReadWriteCloser]struct{})
		}
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// ServeConn handles one connection until EOF or error. Exported so tests
// and in-process pairs (net.Pipe) can drive it directly.
//
// Serial verbs are handled inline, in arrival order. READBATCH and
// WRITEBATCH frames are dispatched to a small per-connection worker
// pool and answered whenever they complete — possibly out of order
// relative to each other and to later serial verbs; the tag routes each
// reply. Callers that need write-then-read ordering for an object get
// it from the write acknowledgement: ACKBATCH/ACKTAG/OK is sent only
// after the store mutation, so a read issued after the ack observes it.
// Symmetrically, two batches carrying writes to the same object may be
// applied in either order — clients must not have two unacknowledged
// writes to one object in flight (the pipelined client's runtime caller
// serializes per-object write-backs).
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	defer conn.Close()
	connID := int(s.nextCon.Add(1))
	s.metrics.connsTotal.Inc()
	s.metrics.conns.Add(1)
	defer s.metrics.conns.Add(-1)

	// Frame I/O goes through one buffered reader and one buffered writer
	// per connection: a read drains whatever the kernel holds (a whole
	// doorbell of request frames, not one header field), and a reply is
	// assembled in bw and leaves as one write.
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)

	// Batch workers reply concurrently with the inline loop: every
	// response frame goes through send so frames never interleave, and
	// send flushes before it unlocks, so no reply ever waits in bw for a
	// later one (Drain and the client's stall detector rely on that).
	// crcOut/traceOut flip after the negotiation reply is sent; no batch
	// can be in flight then (clients wait for the feature OK first), so
	// each switch is ordered with every extended frame.
	var wmu sync.Mutex
	var crcOut, traceOut atomic.Bool
	send := func(resp rdma.Frame) error {
		wmu.Lock()
		defer wmu.Unlock()
		s.metrics.bytesOut.Add(resp.WireSize())
		writeFrame := rdma.WriteFrame
		if crcOut.Load() {
			writeFrame = rdma.WriteFrameCRC
		}
		if err := writeFrame(bw, resp); err != nil {
			return err
		}
		return bw.Flush()
	}
	workers := s.BatchWorkers
	if workers <= 0 {
		workers = DefaultBatchWorkers
	}
	var compressOut atomic.Bool
	jobs := make(chan batchJob)
	var bwg sync.WaitGroup
	bwg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer bwg.Done()
			// Per-worker scratch keeps the steady-state batch path free of
			// per-frame allocations (the request slices are reused; reply
			// payloads come from the frame buffer pool).
			var rscratch []rdma.ReadReq
			var wscratch []rdma.WriteReq
			var escratch []rdma.WriteEpochReq
			var cscratch []rdma.ChaseReq
			var cb rdma.DataBatchCBuilder
			defer cb.Release()
			var cwscratch compactWriteScratch
			defer cwscratch.release()
			for j := range jobs {
				trace := traceOut.Load()
				switch j.f.Op {
				case rdma.OpWriteBatch:
					wscratch = s.serveWriteBatch(j, connID, send, trace, wscratch)
				case rdma.OpWriteEpochBatch:
					escratch = s.serveWriteEpochBatch(j, connID, send, trace, escratch)
				case rdma.OpReadEpochBatch:
					rscratch = s.serveReadEpochBatch(j, connID, send, trace, rscratch)
				case rdma.OpChaseBatch:
					cscratch = s.serveChaseBatch(j, connID, send, trace, cscratch)
				case rdma.OpReadBatchC:
					rscratch = s.serveBatchC(j, connID, send, trace, compressOut.Load(), rscratch, &cb)
				case rdma.OpWriteBatchC:
					s.serveWriteBatchC(j, connID, send, trace, false, &cwscratch)
				case rdma.OpWriteEpochBatchC:
					s.serveWriteBatchC(j, connID, send, trace, true, &cwscratch)
				default:
					rscratch = s.serveBatch(j, connID, send, trace, rscratch)
				}
				rdma.PutBuf(j.f.Payload)
			}
		}()
	}
	defer bwg.Wait()
	defer close(jobs)

	crcIn, traceIn := false, false
	for {
		f, err := rdma.ReadFramePooledOpts(br, crcIn, traceIn)
		if err != nil {
			return
		}
		s.metrics.bytesIn.Add(f.WireSize())
		if f.Op == rdma.OpReadBatch || f.Op == rdma.OpWriteBatch ||
			f.Op == rdma.OpReadEpochBatch || f.Op == rdma.OpWriteEpochBatch ||
			f.Op == rdma.OpChaseBatch || f.Op == rdma.OpReadBatchC ||
			f.Op == rdma.OpWriteBatchC || f.Op == rdma.OpWriteEpochBatchC {
			s.metrics.inflight.Add(1)
			jobs <- batchJob{f: f, recv: time.Now()} // reply sent by a worker, possibly out of order
			continue
		}
		s.metrics.inflight.Add(1)
		start := time.Now()
		var startUS uint64
		if s.tracer != nil {
			startUS = s.tracer.Now()
		}
		var resp rdma.Frame
		var ds, idx int64
		enableCRC, enableTrace := false, false
		switch f.Op {
		case rdma.OpPing:
			if feats, ok := rdma.DecodeFeatures(f.Payload); ok {
				// Feature negotiation: answer with our feature word. A
				// legacy client never sends one and gets the empty OK. The
				// reply itself is always legacy-framed; checksummed and
				// trace framing start with the next frame in each direction.
				resp = rdma.Frame{Op: rdma.OpOK, Payload: rdma.EncodeFeatures(ServerFeatures)}
				enableCRC = feats&rdma.FeatCRC != 0
				enableTrace = feats&rdma.FeatTrace != 0
				// Reply segments may be compressed only when the client
				// asked for both the compact tier and compression — the
				// flip is ordered like crcOut/traceOut (no compact batch
				// can be in flight before the feature OK lands).
				compressOut.Store(feats&rdma.FeatCompact != 0 && feats&rdma.FeatCompress != 0)
			} else {
				resp = rdma.Frame{Op: rdma.OpOK}
			}
		case rdma.OpRead:
			req, err := rdma.DecodeRead(f.Payload)
			if err != nil {
				resp = rdma.ErrFrame(err.Error())
				break
			}
			ds, idx = int64(req.DS), int64(req.Idx)
			out := rdma.GetBuf(int(req.Size))
			s.Store.ReadInto(req.DS, req.Idx, out)
			resp = rdma.Frame{Op: rdma.OpData, Payload: out}
		case rdma.OpWrite, rdma.OpWriteTag:
			req, err := rdma.DecodeWrite(f.Payload)
			if err != nil {
				if f.Op == rdma.OpWriteTag {
					resp = rdma.ErrTagFrame(f.Tag, err.Error())
				} else {
					resp = rdma.ErrFrame(err.Error())
				}
				break
			}
			ds, idx = int64(req.DS), int64(req.Idx)
			s.Store.Write(req.DS, req.Idx, req.Data)
			if f.Op == rdma.OpWriteTag {
				resp = rdma.Frame{Op: rdma.OpAckTag, Tag: f.Tag}
			} else {
				resp = rdma.Frame{Op: rdma.OpOK}
			}
		default:
			msg := fmt.Sprintf("unexpected op %s", f.Op)
			if f.Op.Tagged() {
				resp = rdma.ErrTagFrame(f.Tag, msg)
			} else {
				resp = rdma.ErrFrame(msg)
			}
		}
		if resp.Op == rdma.OpErr || resp.Op == rdma.OpErrTag {
			s.metrics.errors.Inc()
		} else {
			s.observeVerb(f.Op, connID, start, startUS, ds, idx, reqTrace(f))
		}
		s.metrics.inflight.Add(-1)
		rdma.PutBuf(f.Payload) // request fully consumed (Store.Write copies)
		if resp.Op.Tagged() {
			// Inline verbs dispatch immediately: receive == dispatch, the
			// whole handle is service time.
			s.stamp(&resp, traceOut.Load(), start, start)
		}
		err = send(resp)
		rdma.PutBuf(resp.Payload)
		if err != nil {
			return
		}
		if enableCRC {
			crcIn = true
			crcOut.Store(true)
		}
		if enableTrace {
			traceIn = true
			traceOut.Store(true)
		}
	}
}

// reqTrace extracts the sampled trace ID riding a request's trace
// extension; 0 when the frame carries none (or the root was unsampled).
func reqTrace(f rdma.Frame) uint64 {
	if !f.HasExt {
		return 0
	}
	traceID, _, sampled := f.TraceCtx()
	if !sampled {
		return 0
	}
	return traceID
}

// serveBatch handles one READBATCH frame on a worker goroutine: gather
// every requested object directly into one pooled DATABATCH reply. The
// request scratch slice is returned for the worker to reuse.
func (s *Server) serveBatch(j batchJob, connID int, send func(rdma.Frame) error, trace bool, scratch []rdma.ReadReq) []rdma.ReadReq {
	f := j.f
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	s.metrics.wire.add(f.Op, f.WireSize())
	reqs, err := rdma.DecodeReadBatchInto(f.Payload, scratch)
	if err != nil {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, err.Error())
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return scratch
	}
	size := rdma.DataBatchSize(reqs)
	if size > rdma.MaxFrame {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, "batch reply exceeds frame limit")
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return reqs
	}
	p := rdma.GetBuf(size)
	w := rdma.BeginDataBatch(p, len(reqs))
	for _, r := range reqs {
		s.Store.ReadInto(r.DS, r.Idx, w.Next(int(r.Size)))
	}
	s.observeBatch(connID, len(reqs), start, startUS, reqTrace(f))
	resp := w.Frame(f.Tag)
	s.metrics.wire.add(resp.Op, resp.WireSize())
	s.stamp(&resp, trace, j.recv, start)
	send(resp)
	rdma.PutBuf(p)
	return reqs
}

// serveWriteBatch handles one WRITEBATCH frame on a worker goroutine:
// apply every write in batch order, then acknowledge the whole batch
// with one ACKBATCH. Writes within a batch are ordered; two batches may
// be applied in either order (see the ServeConn contract).
func (s *Server) serveWriteBatch(j batchJob, connID int, send func(rdma.Frame) error, trace bool, scratch []rdma.WriteReq) []rdma.WriteReq {
	f := j.f
	defer s.metrics.inflight.Add(-1)
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	s.metrics.wire.add(f.Op, f.WireSize())
	reqs, err := rdma.DecodeWriteBatchInto(f.Payload, scratch)
	if err != nil {
		s.metrics.errors.Inc()
		resp := rdma.ErrTagFrame(f.Tag, err.Error())
		s.stamp(&resp, trace, j.recv, start)
		send(resp)
		return scratch
	}
	for _, r := range reqs {
		s.Store.Write(r.DS, r.Idx, r.Data)
	}
	s.observeWriteBatch(connID, len(reqs), start, startUS, reqTrace(f))
	resp := rdma.EncodeAckBatch(f.Tag, len(reqs))
	s.metrics.wire.add(resp.Op, resp.WireSize())
	s.stamp(&resp, trace, j.recv, start)
	send(resp)
	return reqs
}

// Counts returns (reads, writes) served. The values are the registry's
// cards_remote_reads_total / writes_total counters.
func (s *Server) Counts() (uint64, uint64) {
	return s.metrics.reads.Load(), s.metrics.writes.Load()
}

// Close stops the listener and waits for connections to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Drain performs a graceful shutdown: stop accepting, let in-flight
// requests finish (bounded by timeout), then force-close any connection
// still open and wait for its goroutines. Clients see a clean
// disconnect after their outstanding replies, which their reconnect
// logic treats as an ordinary cut. Returns true if in-flight work hit
// zero before the timeout.
func (s *Server) Drain(timeout time.Duration) bool {
	s.mu.Lock()
	closed := s.closed
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil && !closed {
		ln.Close()
	}
	deadline := time.Now().Add(timeout)
	drained := false
	for {
		if s.metrics.inflight.Load() == 0 {
			drained = true
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	conns := make([]io.ReadWriteCloser, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return drained
}

// ClientOpts configures the serial client's fault handling. The zero
// value reproduces the historical behavior exactly: no deadline, no
// retries, no redial — a broken connection stays broken.
type ClientOpts struct {
	// Timeout bounds each round trip (request write + response read).
	// Expiry returns ErrTimeout and abandons the connection: the reply
	// may still arrive later and would desynchronize the stream.
	Timeout time.Duration

	// RetryMax is the number of retries (beyond the first attempt) for
	// idempotent verbs (PING, READ) and for any verb whose request never
	// reached the wire. Writes that fail mid round trip are never
	// silently retried — callers get ErrUncertainWrite.
	RetryMax int

	// RetryBase/RetryCap shape the capped exponential backoff between
	// attempts (defaults 2ms / 250ms). Seed makes the jitter
	// deterministic for tests; 0 uses a fixed default seed.
	RetryBase time.Duration
	RetryCap  time.Duration
	Seed      int64

	// Redial reopens the transport after a failure. Nil disables
	// reconnects (and with them all retries that need a fresh conn).
	Redial func() (io.ReadWriteCloser, error)
}

// Client is a farmem.Store backed by a protocol connection. Round trips
// are serialized; Close is safe to call concurrently with an in-flight
// round trip (it unblocks the stalled network I/O rather than waiting
// behind it). After a transport failure the client abandons the
// connection — with a Redial it reopens one and retries idempotent
// verbs under capped backoff; without, it fails fast as before.
type Client struct {
	mu      sync.Mutex // serializes round trips; never held by Close
	connMu  sync.Mutex // guards the conn pointer swap vs Close
	conn    io.ReadWriteCloser
	opts    ClientOpts
	rng     *rand.Rand // jitter source; guarded by mu
	closed  atomic.Bool
	broken  error // sticky transport error; guarded by mu
	wantCRC bool  // negotiate checksummed framing on every fresh conn
	crc     bool  // CRC active on the current conn; guarded by mu
	metrics *clientMetrics
}

// ErrClientClosed is returned by calls made after (or unblocked by)
// Close.
var ErrClientClosed = errors.New("remote: client closed")

// Dial connects to a server address with zero-value options (no
// deadline, no retries).
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, ClientOpts{})
}

// DialOpts connects to a server address with fault handling configured.
// When opts.Redial is nil it defaults to redialing addr.
func DialOpts(addr string, opts ClientOpts) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	faultTolerant := opts.RetryMax > 0 || opts.Timeout > 0
	if opts.Redial == nil && faultTolerant {
		opts.Redial = func() (io.ReadWriteCloser, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return c, nil
		}
	}
	c := NewClientConnOpts(conn, opts)
	if faultTolerant {
		// A fault-tolerant session needs checksummed framing: without it a
		// corrupted request decodes as garbage server-side and comes back
		// as a definitive ERR reply, which is never retried. Legacy servers
		// answer the feature ping with an empty OK and the session stays on
		// plain framing. If the handshake itself is garbled, the conn is
		// marked broken so the first operation redials and renegotiates
		// under the normal retry budget.
		c.wantCRC = true
		if crc, err := negotiateCRC(conn, opts.Timeout); err != nil {
			c.broken = err
		} else {
			c.crc = crc
		}
	}
	return c, nil
}

// NewClientConn wraps an existing connection (e.g. one end of net.Pipe).
func NewClientConn(conn io.ReadWriteCloser) *Client { return &Client{conn: conn} }

// NewClientConnOpts wraps an existing connection with fault handling.
func NewClientConnOpts(conn io.ReadWriteCloser, opts ClientOpts) *Client {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Client{conn: conn, opts: opts, rng: rand.New(rand.NewSource(seed))}
}

// roundTrip sends a request and reads the response, redialing and
// retrying per ClientOpts. Server ERR replies are definitive and never
// retried; transport failures on non-idempotent verbs surface as
// ErrUncertainWrite unless the request provably never hit the wire.
func (c *Client) roundTrip(req rdma.Frame) (rdma.Frame, error) {
	if c.closed.Load() {
		return rdma.Frame{}, ErrClientClosed
	}
	idempotent := req.Op == rdma.OpPing || req.Op == rdma.OpRead
	c.mu.Lock()
	defer c.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if c.closed.Load() {
			return rdma.Frame{}, ErrClientClosed
		}
		sent := false
		resp, err := c.attemptLocked(req, &sent)
		if err == nil {
			return resp, nil
		}
		if errors.Is(err, ErrClientClosed) {
			return rdma.Frame{}, ErrClientClosed
		}
		if c.broken == nil {
			// The connection survived: this is a definitive server-level
			// error (ERR reply), not a transport fault. Never retried.
			return rdma.Frame{}, err
		}
		if !idempotent && sent {
			// The request may have reached the server; replaying could
			// apply the mutation twice. Surface the uncertainty instead.
			if m := c.metrics; m != nil {
				m.uncertainWrites.Inc()
			}
			return rdma.Frame{}, uncertain(err)
		}
		if attempt >= c.opts.RetryMax || c.opts.Redial == nil {
			return rdma.Frame{}, err
		}
		if m := c.metrics; m != nil {
			m.retries.Inc()
		}
		time.Sleep(backoff(c.rng, c.opts.RetryBase, c.opts.RetryCap, attempt))
	}
}

// attemptLocked performs one round-trip attempt (caller holds mu),
// redialing first when the previous connection broke. *sent reports
// whether the request may have reached the wire.
func (c *Client) attemptLocked(req rdma.Frame, sent *bool) (rdma.Frame, error) {
	if c.broken != nil {
		if c.opts.Redial == nil {
			return rdma.Frame{}, fmt.Errorf("remote: connection broken: %w", c.broken)
		}
		if err := c.redialLocked(); err != nil {
			return rdma.Frame{}, err
		}
	}
	*sent = true
	conn := c.conn
	writeFrame, readFrame := rdma.WriteFrame, rdma.ReadFrame
	if c.crc {
		writeFrame, readFrame = rdma.WriteFrameCRC, rdma.ReadFrameCRC
	}
	g := guardIO(conn, c.opts.Timeout)
	start := time.Now()
	err := writeFrame(conn, req)
	var resp rdma.Frame
	if err == nil {
		resp, err = readFrame(conn)
	}
	if err = g.finish(err); err != nil {
		if errors.Is(err, ErrTimeout) {
			if m := c.metrics; m != nil {
				m.timeouts.Inc()
			}
		}
		return rdma.Frame{}, c.breakConn(err)
	}
	if m := c.metrics; m != nil {
		m.bytesOut.Add(req.WireSize())
		m.bytesIn.Add(resp.WireSize())
		m.observe(req.Op, uint64(time.Since(start).Nanoseconds()))
	}
	if resp.Op == rdma.OpErr {
		return rdma.Frame{}, fmt.Errorf("remote: server error: %s", resp.Payload)
	}
	return resp, nil
}

// redialLocked replaces the broken connection with a fresh one (caller
// holds mu). The swap is guarded against a concurrent Close: if the
// client closed while dialing, the new conn is closed and the client
// stays closed.
func (c *Client) redialLocked() error {
	conn, err := c.opts.Redial()
	if err != nil {
		// The dial itself failed: nothing reached the wire, so even
		// writes may retry this. c.broken stays set.
		return fmt.Errorf("remote: redial: %w", err)
	}
	c.connMu.Lock()
	if c.closed.Load() {
		c.connMu.Unlock()
		conn.Close()
		return ErrClientClosed
	}
	old := c.conn
	c.conn = conn
	c.connMu.Unlock()
	if old != nil {
		old.Close()
	}
	c.broken = nil
	c.crc = false
	if c.wantCRC {
		// Re-negotiate checksummed framing on the fresh stream. A failure
		// here happens before the caller's request touches the wire, so
		// even writes may retry it.
		crc, err := negotiateCRC(conn, c.opts.Timeout)
		if err != nil {
			return c.breakConn(err)
		}
		c.crc = crc
	}
	if m := c.metrics; m != nil {
		m.reconnects.Inc()
	}
	return nil
}

// breakConn marks the stream unusable after a transport error (caller
// holds mu) and maps errors caused by a concurrent Close to
// ErrClientClosed.
func (c *Client) breakConn(err error) error {
	if c.closed.Load() {
		err = ErrClientClosed
	}
	c.broken = err
	return err
}

// Ping checks liveness.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(rdma.Frame{Op: rdma.OpPing})
	if err != nil {
		return err
	}
	if resp.Op != rdma.OpOK {
		return fmt.Errorf("remote: unexpected ping response %s", resp.Op)
	}
	return nil
}

// ReadObj implements farmem.Store.
func (c *Client) ReadObj(ds, idx int, dst []byte) error {
	resp, err := c.roundTrip(rdma.EncodeRead(uint32(ds), uint32(idx), uint32(len(dst))))
	if err != nil {
		return err
	}
	if resp.Op != rdma.OpData {
		return fmt.Errorf("remote: unexpected read response %s", resp.Op)
	}
	copy(dst, resp.Payload)
	return nil
}

// WriteObj implements farmem.Store.
func (c *Client) WriteObj(ds, idx int, src []byte) error {
	resp, err := c.roundTrip(rdma.EncodeWrite(uint32(ds), uint32(idx), src))
	if err != nil {
		return err
	}
	if resp.Op != rdma.OpOK {
		return fmt.Errorf("remote: unexpected write response %s", resp.Op)
	}
	return nil
}

// Close closes the underlying connection. It never waits behind an
// in-flight round trip: closing the current connection unblocks any
// goroutine stalled in network I/O, which then returns ErrClientClosed.
// A concurrent redial observes the closed flag under connMu and closes
// its fresh connection too. Close is idempotent and safe for concurrent
// use.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.conn.Close()
}
