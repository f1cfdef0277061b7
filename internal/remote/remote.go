// Package remote implements the remote memory node: a server that owns
// the far tier of objects keyed by (data structure, object index), and a
// client that implements farmem.Store over the rdma wire protocol. This
// is the process pair the paper runs on two CloudLab machines — memory
// server on one, application on the other.
//
// The server is concurrency-safe (one goroutine per connection serving
// fault-sized batches where it reads them, plus a per-connection worker
// pool answering the rest out of order). The
// client, PipelinedClient, keeps a bounded window of tagged requests in
// flight, coalesces queued operations into single doorbell writes, and
// implements farmem.AsyncStore so prefetchers can issue a whole
// lookahead window without blocking; its synchronous ReadObj/WriteObj
// are issue-and-wait over the same pipeline, and it redials by itself,
// so a restarted server is picked up without restarting the process.
package remote

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// ObjectStore is the server-side keyed object storage. Every object
// optionally carries a u64 epoch stamp (the replication verbs):
// epoch-stamped writes apply conditionally so a resync replaying stale
// images can never clobber a newer write, and epoch-stamped reads
// report the stored stamp so a client can tell a current image from a
// stale backup.
//
// Each object is held once, in the wire form it arrived in (see image):
// a write-back its client compressed stays compressed, and a read on a
// session that takes compressed segments gets those bytes back verbatim,
// as it gets a raw image's block, packed once per version (keepPacked).
// Every exported method speaks raw bytes and expands on the way out.
type ObjectStore struct {
	mu sync.RWMutex
	m  map[[2]uint32]image
}

// image is one stored object as the (scheme, rawLen, bytes) triple a
// WRITEBATCH-C tuple or DATABATCH-C segment carries it in: SchemeRaw
// holds the rawLen bytes themselves, SchemeLZ an LZ block that decoded
// to rawLen bytes when the server validated it on arrival, SchemeWords a
// bit-packed block that passed rdma.CheckWords for rawLen then,
// SchemeZero nothing — plus the object's epoch stamp. An absent object
// reads as image's zero value: raw, no bytes, epoch 0. ver counts writes
// and splices; packed is a raw image's pscheme block (keepPacked).
type image struct {
	scheme, pscheme uint8
	rawLen, ver     uint32
	data, packed    []byte
	epoch           uint64
}

// expand fills dst with the image's raw bytes under ReadInto's contract:
// the object's prefix, zero-filled when it is shorter than dst.
func (im image) expand(dst []byte) {
	n := 0
	switch {
	case len(dst) == 0:
	case im.scheme == rdma.SchemeRaw:
		n = copy(dst, im.data)
	case rdma.SchemePacked(im.scheme):
		// A block only decodes whole: straight into dst when it fits,
		// through a temporary for a read shorter than the object.
		raw := dst
		if n = int(im.rawLen); n > len(dst) {
			raw = make([]byte, n)
		}
		if err := rdma.UnpackBlock(im.scheme, raw[:n], im.data); err != nil {
			panic(fmt.Sprintf("remote: stored scheme-%d image no longer decodes: %v", im.scheme, err)) // validated on arrival
		}
		n = copy(dst, raw[:n])
	}
	clear(dst[n:])
}

// NewObjectStore creates an empty store.
func NewObjectStore() *ObjectStore {
	return &ObjectStore{m: make(map[[2]uint32]image)}
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
// chase walk uses to fill reply buffers in place.
func (s *ObjectStore) ReadInto(ds, idx uint32, dst []byte) { s.ReadEpochInto(ds, idx, dst) }

// readWire is the batch workers' gather: it copies the object into dst
// (len(dst) is the size the client asked for) in the cheapest form the
// caller takes, and says which, with the stored epoch stamp read under
// the same lock hold.
//
//   - SchemeZero: the object is absent or stored as zeros; dst is untouched.
//   - SchemeLZ, SchemeWords (only when packed is set): dst[:n] holds the
//     stored or kept block, which expands to exactly len(dst) bytes.
//   - SchemeRaw: dst holds the raw bytes as ReadInto leaves them; n is
//     len(dst), and ver, unless 0, the raw image's version (keepPacked).
func (s *ObjectStore) readWire(ds, idx uint32, dst []byte, packed bool) (scheme uint8, n int, epoch uint64, ver uint32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	im, ok := s.m[[2]uint32{ds, idx}]
	exact := int(im.rawLen) == len(dst)
	switch {
	case !ok || im.scheme == rdma.SchemeZero:
		return rdma.SchemeZero, 0, im.epoch, 0
	case packed && exact && rdma.SchemePacked(im.scheme):
		return im.scheme, copy(dst, im.data), im.epoch, 0
	case packed && exact && len(im.packed) > 0:
		return im.pscheme, copy(dst, im.packed), im.epoch, 0
	}
	im.expand(dst)
	if !exact || im.scheme != rdma.SchemeRaw {
		im.ver = 0
	}
	return rdma.SchemeRaw, len(dst), im.epoch, im.ver
}

// keepPacked keeps block, a read's pack of the raw image at version ver,
// beside it while ver stands: the next write or splice drops it.
func (s *ObjectStore) keepPacked(ds, idx, ver uint32, scheme uint8, block []byte) {
	k := [2]uint32{ds, idx}
	s.mu.Lock()
	defer s.mu.Unlock()
	if im := s.m[k]; im.ver == ver && len(im.packed) == 0 {
		im.pscheme, im.packed = scheme, append(im.packed, block...)
		s.m[k] = im
	}
}

// Write stores a copy of data.
func (s *ObjectStore) Write(ds, idx uint32, data []byte) {
	s.writeWire(ds, idx, false, 0, rdma.SchemeRaw, uint32(len(data)), data)
}

// WriteEpoch stores a copy of data stamped with epoch iff epoch is at
// least the stored stamp, and reports whether it applied. Equal epochs
// apply (write-back reissues after an uncertain ack carry the same
// stamp and must land); older epochs are stale resync images and are
// dropped. The compare-and-store is atomic under the store lock, so a
// live write and a concurrent anti-entropy replay serialize correctly
// whichever order they arrive.
func (s *ObjectStore) WriteEpoch(ds, idx uint32, epoch uint64, data []byte) bool {
	return s.writeWire(ds, idx, true, epoch, rdma.SchemeRaw, uint32(len(data)), data)
}

// writeWire is the one way a full object is applied: it stores a copy
// of the image in wire form, under WriteEpoch's rule when stamped. A
// block must already have been validated for rawLen bytes — an LZ one
// decoded once, a bit-packed one through rdma.CheckWords: the store
// trusts it from here on.
func (s *ObjectStore) writeWire(ds, idx uint32, stamped bool, epoch uint64, scheme uint8, rawLen uint32, wire []byte) bool {
	k := [2]uint32{ds, idx}
	s.mu.Lock()
	defer s.mu.Unlock()
	im := s.m[k]
	if stamped {
		if epoch < im.epoch {
			return false
		}
		im.epoch = epoch
	}
	s.m[k] = im.put(scheme, rawLen, wire)
	return true
}

// put returns the image holding a copy of wire, its epoch stamp carried
// over and its version advanced. The old buffer is reused when the new
// bytes fit it without leaving more than half of it idle: a same-size
// overwrite allocates nothing, and a block replacing a raw image does
// not pin its footprint. Stored slices never leave the store.
func (im image) put(scheme uint8, rawLen uint32, wire []byte) image {
	buf := im.data[:0]
	if cap(buf) < len(wire) || cap(buf) > 2*len(wire) {
		buf = nil
	}
	return image{scheme: scheme, rawLen: rawLen, ver: im.ver + 1, data: append(buf, wire...), packed: im.packed[:0], epoch: im.epoch}
}

// ReadEpochInto is ReadInto returning the object's stored epoch stamp
// (0 when absent or never epoch-stamped). The copy and the stamp read
// happen under one lock acquisition so the pair is a consistent
// snapshot.
func (s *ObjectStore) ReadEpochInto(ds, idx uint32, dst []byte) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	im := s.m[[2]uint32{ds, idx}]
	im.expand(dst)
	return im.epoch
}

// Epoch returns the stored epoch stamp for an object (0 when absent).
func (s *ObjectStore) Epoch(ds, idx uint32) uint64 { return s.ReadEpochInto(ds, idx, nil) }

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

// Server serves the far-memory protocol on a listener, each connection
// on its own read loop and batchWorkers goroutines (see ServeConn).
type Server struct {
	Store *ObjectStore

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
	cpolicy compressPolicy // per-DS adaptive compression state
	nextCon atomic.Int64
	epoch   time.Time // base for the RecvUS server stamps
}

// batchWorkers is the number of goroutines per connection serving the
// request frames the read loop does not serve itself (chases, batches
// above inlineMaxTuples), concurrently and possibly out of order (tags
// route the replies).
const batchWorkers = 4

// connBufSize sizes the buffered reader each side puts under its frame
// loop and the writer the server assembles replies in. It holds several
// 4 KiB-object frames; a frame larger than the buffer bypasses it (bufio
// reads and writes oversized spans directly), so it bounds memory per
// connection, not frame size.
const connBufSize = 32 << 10

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
		conns:   make(map[io.ReadWriteCloser]struct{}),
		reg:     reg,
		tracer:  tr,
		metrics: newServerMetrics(reg),
		epoch:   time.Now(),
	}
}

// batchJob carries one tagged request to the worker pool together with
// its socket receive time, so the reply stamp can split queue wait
// (receive to worker pickup) from service time.
type batchJob struct {
	f    rdma.Frame
	recv time.Time
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
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// ServeConn handles one connection until EOF or error. Exported so tests
// and in-process pairs (net.Pipe) can drive it directly.
//
// The first frame must be a HELLO this server can run (rdma/hello.go);
// anything else is answered with ERR and the connection closed. After
// it only tagged verbs exist. A fault-sized batch (inlineMaxTuples) is
// served where it was read; a chase or a longer batch goes to the
// connection's batchWorkers and is answered whenever it completes —
// possibly out of order; the tag routes each reply. Callers that need
// write-then-read ordering for an object get it from the write
// acknowledgement: ACKBATCH-C is sent only after the store mutation, so a
// read issued after the ack observes it. Symmetrically, two batches
// carrying writes to the same object may be applied in either order —
// clients must not have two unacknowledged writes to one object in flight
// (the pipelined client's runtime caller serializes per-object
// write-backs).
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	defer conn.Close()
	connID := int(s.nextCon.Add(1))
	s.metrics.connsTotal.Inc()
	s.metrics.conns.Add(1)
	defer s.metrics.conns.Add(-1)

	// Frame I/O goes through one buffered reader per connection: a read
	// drains whatever the kernel holds (a whole doorbell of request
	// frames, not one header field). A worker's reply is assembled in bw
	// and leaves as one write; the read loop's leave one write per burst.
	br := bufio.NewReaderSize(conn, connBufSize)
	bw := bufio.NewWriterSize(conn, connBufSize)

	h, ok := s.acceptHello(br, bw)
	if !ok {
		return
	}
	// The session's shape is fixed here, before any worker exists.
	c := &srvConn{
		s: s, id: connID, conn: conn, bw: bw,
		trace:    h.Opts&rdma.OptTrace != 0,
		compress: h.Opts&rdma.OptCompress != 0,
		jobs:     make(chan batchJob),
	}
	c.fr = rdma.NewFrameReader(br, c.trace)
	var workers sync.WaitGroup
	workers.Add(batchWorkers)
	for i := 0; i < batchWorkers; i++ {
		go func() {
			defer workers.Done()
			var w workerScratch
			defer w.release()
			for j := range c.jobs {
				c.serve(j, &w, false)
			}
		}()
	}
	c.readLoop()
	close(c.jobs)
	workers.Wait()
}

// inlineMaxTuples is the largest READBATCH-C or WRITEBATCH-C the read
// loop serves itself. What a fault sends — the missed object, the dirty
// victim's write-back, one prefetcher window (eight reads) — costs about
// a microsecond to serve, several times less than waking a worker for it
// (cardsd.queue_us against cardsd.service_us). A longer batch is a window
// of independent work: the pool's parallelism is worth its hand-off, and
// its reply is long enough to hold later frames up. Chases always go to
// the pool: their cost is the hop budget, not the tuple count.
const inlineMaxTuples = 8

func inlineSized(f rdma.Frame) bool {
	if op := f.Op &^ rdma.EpochBit; op != rdma.OpReadBatchC && op != rdma.OpWriteBatchC {
		return false
	}
	n, ok := rdma.BatchCount(f.Payload)
	return ok && n <= inlineMaxTuples
}

// stagedMax bounds the replies a read burst stages before writing them: a
// fault's doorbell (an ack and ~4 KiB of data) and a prefetch window (up
// to 32 KiB) stay one Write; tiny requests for large objects cannot stage
// a reader's worth of frames times MaxFrame.
const stagedMax = 4 * connBufSize

// readLoop is the connection's run-to-completion loop: read a frame,
// serve it here if it is fault-sized, stage the reply, and write what is
// staged — once — when the next frame is not already in the buffer or
// stagedMax is reached. Its invariants: it never waits, for the socket or
// for a free worker, with reply bytes staged; a request stays in flight
// until its reply has been written, not merely staged, so Drain cannot
// close the connection over one; on any exit it writes what it can and
// settles the gauge. A peer that stops reading parks the write, and its
// own connection with it: ordinary backpressure, bounded by Drain.
func (c *srvConn) readLoop() {
	s := c.s
	var w workerScratch
	defer w.release()
	defer c.flush()
	for {
		if len(c.staged) > 0 && (!c.fr.Buffered() || len(c.staged) >= stagedMax) {
			c.flush()
		}
		f, err := c.fr.Read()
		if err != nil {
			return
		}
		s.metrics.bytesIn.Add(f.WireSize())
		if !f.Op.Tagged() {
			// Past the hello there is no untagged verb — a second HELLO
			// included — and no tag to route a per-request error by.
			s.metrics.errors.Inc()
			s.metrics.wire.add(f.Op, f.WireSize())
			resp := rdma.HelloErrFrame(fmt.Sprintf("unexpected %s mid-session", f.Op))
			s.metrics.wire.add(resp.Op, resp.WireSize())
			s.metrics.bytesOut.Add(resp.WireSize())
			c.staged = rdma.AppendFrameCRC(c.staged, resp)
			rdma.PutBuf(f.Payload)
			return
		}
		s.metrics.inflight.Add(1)
		j := batchJob{f: f, recv: time.Now()}
		if inlineSized(f) {
			c.serve(j, &w, true)
			continue
		}
		// Every worker may be busy, perhaps parked behind a slow peer: what
		// is staged goes out before this waits for one.
		c.flush()
		c.jobs <- j // reply sent by a worker, possibly out of order
	}
}

// flush writes the staged replies in one Write and settles what they
// owed whether or not it succeeded (after a failed write the read side
// fails next).
func (c *srvConn) flush() {
	if len(c.staged) == 0 {
		return
	}
	c.wmu.Lock()
	c.conn.Write(c.staged) // bw is empty: every send flushes before it unlocks
	c.wmu.Unlock()
	c.s.metrics.inflight.Add(-c.owed)
	c.owed = 0
	if c.staged = c.staged[:0]; cap(c.staged) > stagedMax {
		c.staged = nil // one oversized burst must not pin its buffer
	}
}

// acceptHello runs the server half of the handshake on a fresh
// connection: read the first frame, answer OK (echoing the hello) or
// ERR, both plain-framed. It reports whether the session is up.
func (s *Server) acceptHello(br *bufio.Reader, bw *bufio.Writer) (rdma.Hello, bool) {
	f, err := rdma.ReadFramePooled(br)
	if err != nil {
		return rdma.Hello{}, false
	}
	defer rdma.PutBuf(f.Payload)
	s.metrics.bytesIn.Add(f.WireSize())
	h, herr := rdma.DecodeHello(f.Payload)
	var refusal string
	switch {
	case f.Op != rdma.OpHello || len(f.Payload) != rdma.HelloSize:
		refusal = fmt.Sprintf("connection opened with %s (%d bytes), not a HELLO", f.Op, len(f.Payload))
	case herr != nil:
		refusal = herr.Error()
	case !h.Valid():
		refusal = fmt.Sprintf("client speaks version %d, options %#x", h.Version, h.Opts)
	}
	var resp rdma.Frame
	if refusal == "" {
		resp = rdma.HelloFrame(rdma.OpOK, h)
	} else {
		s.metrics.errors.Inc()
		resp = rdma.HelloErrFrame(fmt.Sprintf("server speaks protocol version %d: %s", rdma.ProtoVersion, refusal))
	}
	s.metrics.bytesOut.Add(resp.WireSize())
	if rdma.WriteFrame(bw, resp) != nil || bw.Flush() != nil {
		return h, false
	}
	return h, refusal == ""
}

// srvConn is one served connection's session state, fixed by its hello.
type srvConn struct {
	s        *Server
	id       int
	trace    bool // every tagged frame carries the trace block
	compress bool // replies may carry compressed segments

	jobs chan batchJob // to the worker pool

	// Owned by readLoop: its reader, the replies it served and has not yet
	// written (whole frames), and the requests they answer — in flight
	// until written.
	fr     *rdma.FrameReader
	staged []byte
	owed   int64

	// Workers reply concurrently with each other and with the read loop's
	// burst writes: everything written to the connection is whole frames
	// under wmu, and send flushes before it unlocks, so no reply ever waits
	// in bw for a later one (Drain and the client's stall detector rely on
	// that).
	wmu  sync.Mutex
	conn io.Writer
	bw   *bufio.Writer
}

// send writes one worker's reply. A failed write needs no handling here:
// the read side of a broken connection fails next and ends the session.
func (c *srvConn) send(resp rdma.Frame) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.s.metrics.bytesOut.Add(resp.WireSize())
	if rdma.WriteFrameCRC(c.bw, resp) == nil {
		c.bw.Flush()
	}
}

// workerScratch keeps a worker's steady-state path free of per-frame
// allocations: decoded request slices are reused across frames, and
// reply payloads come from the frame buffer pool.
type workerScratch struct {
	reads  []rdma.ReadReq
	try    []bool // per read: attempt compression (one policy verdict each)
	chases []rdma.ChaseReq
	cb     rdma.DataBatchCBuilder
	cw     writeScratch
}

func (w *workerScratch) release() {
	w.cb.Release()
	w.cw.release()
}

// served is what one request did, for the counters and the span. A
// stamped request shares its family's series, named by the un-stamped
// request opcode.
type served struct {
	family  rdma.Op // OpReadBatchC, OpWriteBatchC or OpChaseBatch
	n, hops int     // tuples served; hops walked (chases only)
}

// serve answers one tagged request, on a worker (the reply is sent and
// the request stops counting as in flight) or inline on the read loop
// (the reply is staged and settled when the burst is written). It
// is the one envelope around every verb: pickup time, per-verb wire
// accounting of request and reply, a failed body (undecodable request,
// oversized reply, unknown verb) turned into a definitive ERRTAG, and the
// reply's trace stamp. Every tagged reply of a traced session carries the
// fixed-size block — the client's framing depends on it — so error
// replies are stamped too. The stamp's service time ends here, before any
// write: a burst's flush is charged to the wire. Both payloads go back to
// the pool.
func (c *srvConn) serve(j batchJob, w *workerScratch, inline bool) {
	s, f := c.s, j.f
	start := time.Now()
	var startUS uint64
	if s.tracer != nil {
		startUS = s.tracer.Now()
	}
	s.metrics.wire.add(f.Op, f.WireSize())
	resp, sv, err := c.handle(f, w)
	if err != nil {
		s.metrics.errors.Inc()
		resp = rdma.ErrTagFrame(f.Tag, err.Error())
	} else {
		s.observe(c.id, sv, start, startUS, reqTrace(f))
	}
	s.metrics.wire.add(resp.Op, resp.WireSize())
	if c.trace {
		resp.SetServerStamp(
			uint64(j.recv.Sub(s.epoch).Microseconds()),
			uint32(start.Sub(j.recv).Microseconds()),
			uint32(time.Since(start).Microseconds()),
		)
	}
	if inline {
		s.metrics.bytesOut.Add(resp.WireSize())
		c.staged = rdma.AppendFrameCRC(c.staged, resp)
		c.owed++
	} else {
		c.send(resp)
		s.metrics.inflight.Add(-1)
	}
	rdma.PutBuf(resp.Payload)
	rdma.PutBuf(f.Payload)
}

// handle runs the per-verb body: decode, touch the store, build the
// reply (its payload pooled; serve releases it). Three requests exist,
// two of them with or without the epoch modifier; everything else —
// reserved opcodes of older protocol versions included — is refused
// undecoded.
func (c *srvConn) handle(f rdma.Frame, w *workerScratch) (rdma.Frame, served, error) {
	switch f.Op {
	case rdma.OpReadBatchC, rdma.OpReadBatchC | rdma.EpochBit:
		return c.s.readBatch(f, w, c.compress)
	case rdma.OpWriteBatchC, rdma.OpWriteBatchC | rdma.EpochBit:
		return c.s.writeBatch(f, w)
	case rdma.OpChaseBatch:
		return c.s.chaseBatch(f, w)
	default:
		return rdma.Frame{}, served{}, fmt.Errorf("unexpected op %s", f.Op)
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

// Counts returns (reads, writes) served: the sums of the registry's
// per-batch size histograms.
func (s *Server) Counts() (uint64, uint64) {
	return s.metrics.batchReads.Sum(), s.metrics.batchWrites.Sum()
}

// Close stops the listener and waits for connections to drain.
func (s *Server) Close() error {
	if !s.stopAccepting() {
		s.wg.Wait()
	}
	return nil
}

// stopAccepting closes the listener, once; it reports whether an earlier
// Close or Drain already had.
func (s *Server) stopAccepting() (already bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if already, s.closed = s.closed, true; !already && s.ln != nil {
		s.ln.Close()
	}
	return already
}

// Drain performs a graceful shutdown: stop accepting, let in-flight
// requests finish (bounded by timeout), then force-close any connection
// still open and wait for its goroutines. Clients see a clean
// disconnect after their outstanding replies, which their reconnect
// logic treats as an ordinary cut. Returns true if in-flight work hit
// zero before the timeout.
func (s *Server) Drain(timeout time.Duration) bool {
	s.stopAccepting()
	deadline := time.Now().Add(timeout)
	drained := s.metrics.inflight.Load() == 0
	for !drained && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		drained = s.metrics.inflight.Load() == 0
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

// ErrClientClosed is returned by calls made after (or unblocked by)
// Close.
var ErrClientClosed = errors.New("remote: client closed")
