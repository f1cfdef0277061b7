package remote

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
)

// ErrProtoMismatch reports a peer that completed the handshake exchange
// intact — its reply passed its own checksum — but speaks a different
// protocol version (or answered with a different session than was asked
// for). It is definitive: no redial can change it, so neither the
// initial-dial retry nor the reconnect loop spends any backoff budget on
// it.
var ErrProtoMismatch = errors.New("remote: protocol mismatch")

// DefaultReconnectAttempts bounds the redial loop after a connection
// fault when PipelineOpts.RetryMax is 0.
const DefaultReconnectAttempts = 6

// PipelineOpts tunes a PipelinedClient.
type PipelineOpts struct {
	// Window bounds the reads in flight on the wire, and separately the
	// writes (default 64). This is the pipeline depth: higher hides more
	// round trips but holds more completion state. Writes have a window
	// of their own so a backlog of write-backs never starves demand reads
	// of in-flight slots, and vice versa.
	Window int
	// MaxBatch bounds the reads coalesced into one READBATCH-C frame and
	// the writes coalesced into one WRITEBATCH-C (default 32, clamped to
	// Window).
	MaxBatch int
	// Obs, when non-nil, receives per-op latencies, doorbell batch
	// sizes, the live in-flight depth, and wire bytes. It must be set
	// here (not after construction) so the background goroutines see it.
	Obs *obs.Registry

	// Trace, when non-nil, turns on distributed tracing: the client
	// asks for the trace frame extension in its hello, stamps active span
	// contexts onto outgoing tagged frames, decomposes every completed
	// op into client-queue / wire / server-queue / server-service from
	// the server's reply stamps, feeds the cards_attrib_* series (when
	// Obs is also set) and the hub's slow-op flight recorder, and emits
	// merged client+server spans for sampled ops. Nil keeps the session
	// byte-identical to a non-tracing client.
	Trace *obs.TraceHub

	// Shard labels this client's attribution series and slow-op records
	// (sharded deployments set it to the shard index); empty omits the
	// label.
	Shard string

	// Compression controls adaptive per-object compression: "" or
	// "adaptive" lets the per-DS policy decide online which objects to
	// compress; "off" ships every non-zero object raw. Any other value is
	// refused (CompressionOn).
	Compression string

	// Timeout bounds the handshake and, on deadline-capable connections,
	// detects a stalled stream: no reply within Timeout while operations
	// are in flight abandons the connection. 0 disables.
	Timeout time.Duration

	// Redial reopens the transport after a connection fault. With it set
	// the client reconnects transparently: the in-flight read window is
	// replayed on the fresh connection (reads are idempotent), while
	// unacknowledged writes complete with ErrUncertainWrite — the caller
	// decides whether its writes are safe to replay. DialPipelined
	// defaults it to redialing the address; nil on a client built over a
	// raw connection means the first fault is final.
	Redial func() (io.ReadWriteCloser, error)

	// RetryMax bounds consecutive failed redial attempts before the
	// client goes down (0 means DefaultReconnectAttempts; negative means
	// none: a fault downs the client at once; see connFail).
	// RetryBase/RetryCap shape the capped exponential backoff between
	// attempts (defaults 2ms / 250ms); Seed makes its jitter
	// deterministic for tests.
	RetryMax  int
	RetryBase time.Duration
	RetryCap  time.Duration
	Seed      int64
}

func (o PipelineOpts) withDefaults() PipelineOpts {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 32
	}
	if o.MaxBatch > o.Window {
		o.MaxBatch = o.Window
	}
	return o
}

// pipeOp is one queued or in-flight operation. Completion is delivered
// exactly once: through done when set (async callers), else through ch.
// What a read or chase returns beyond the error travels in the op
// (epoch, cres); the verbs that hand it to their caller read it there.
type pipeOp struct {
	write         bool
	wantEp        bool // ride the epoch-stamped verbs
	chase         bool // ride the traversal-offload verbs
	probe         bool // liveness ping: not workload, kept out of tracing
	ds, idx, size uint32
	epoch         uint64           // write: stamp to apply; read: stamp received
	dst           []byte           // read destination
	blk           *rdma.Block      // read: what dst holds, if left in wire form (IssueReadWire)
	data          []byte           // write payload (valid until completion)
	exts          []rdma.Extent    // range write-back: dirty extents of data (nil = full object)
	creq          rdma.ChaseReq    // chase: the traversal program
	attempts      int32            // reconnect replays beyond the first attempt (in creq's padding)
	cres          rdma.ChaseResult // chase: decoded path (hop data caller-owned)
	done          func(error)
	ch            chan error
	start         time.Time       // set when metrics or tracing are attached
	sentAt        time.Time       // doorbell time (tracing sessions only)
	ctx           obs.SpanContext // root span context captured at enqueue
}

func (op *pipeOp) complete(err error) {
	if op.done != nil {
		op.done(err)
		return
	}
	op.ch <- err
}

// reqOp is the request opcode the op rides. Ops share a frame only if
// they share it: reads, chases and writes, stamped or not, each have
// their own request and reply shape.
func (op *pipeOp) reqOp() rdma.Op {
	o := rdma.OpReadBatchC
	switch {
	case op.chase:
		return rdma.OpChaseBatch
	case op.write:
		o = rdma.OpWriteBatchC
	}
	if op.wantEp {
		o |= rdma.EpochBit
	}
	return o
}

// replyOp is the one opcode (besides ERRTAG) that may answer req.
func replyOp(req rdma.Op) rdma.Op {
	switch req &^ rdma.EpochBit {
	case rdma.OpReadBatchC:
		return rdma.OpDataBatchC | req&rdma.EpochBit
	case rdma.OpWriteBatchC:
		return rdma.OpAckBatchC
	}
	return rdma.OpChaseData
}

// wireBound is the worst case the op adds to its frame's larger
// direction, as rdma bounds it — the reply segment of a read or chase (a
// chase's size is unknown until the server runs the program: the full hop
// budget), the request tuple of a write.
func (op *pipeOp) wireBound() int {
	switch {
	case op.chase:
		return int(rdma.ChaseResultBound(op.creq)) // chaseOp kept it under MaxFrame
	case op.write:
		n := len(op.data)
		if op.exts != nil {
			n = extentBytes(op.exts)
		}
		return rdma.WriteReqCBound(n, len(op.exts), op.wantEp)
	}
	return rdma.DataSegBound(int(op.size), op.wantEp)
}

// PipelinedClient is a farmem.Store/AsyncStore over one connection that
// keeps a bounded window of tagged requests in flight.
//
// Data path: callers enqueue operations without touching the socket. A
// flusher goroutine drains the queues, coalesces consecutive ops of one
// kind into batch frames, and pushes everything through one buffered
// write and a single flush — the doorbell: one syscall rings out many
// verbs. A reader goroutine demultiplexes completions by tag, so
// replies may arrive in any order.
//
// Ordering contract: reads and writes flow through separate queues with
// separate in-flight windows; each completes in any order and the
// server may serve batches concurrently. A write is acknowledged only
// after it is applied, so issue-after-ack read-your-write ordering
// holds; callers must not read an object while their own write to it is
// still unacknowledged, and must not have two unacknowledged writes to
// the same object in flight (the farmem runtime guarantees both: reads
// of an object with an in-flight write-back are served from its staging
// buffer, and a new write-back of such an object first waits out the
// old one).
//
// Fault model: with Redial configured, a transport fault (cut, checksum
// mismatch, stalled stream) tears the connection down, replays every
// in-flight read on a fresh one under new tags, and completes in-flight
// writes with ErrUncertainWrite. The connection generation counter keeps
// the flusher, the reader, and stale failures from different
// generations honest about which connection actually failed. An outage
// that outlasts the redial budget puts the client down, not dead:
// blocking ops for an unbounded outage would wedge the runtime instead
// of letting its circuit breaker degrade, so everything outstanding
// fails, and each later batch of ops (typically the breaker's Ping
// probe) buys one fail-fast redial that either resumes the session or
// fails them. Pacing those across the outage is the caller's job. Only
// Close, and a fault on a client without Redial, are terminal.
type PipelinedClient struct {
	opts PipelineOpts

	mu           sync.Mutex
	conn         io.ReadWriteCloser // current connection; swapped on reconnect
	bw           *bufio.Writer      // doorbell buffer for conn
	br           *bufio.Reader      // reply buffer for conn; swapped with it, never reused
	gen          uint64             // connection generation
	reconnecting bool               // no live connection: the loops stay parked
	down         bool               // reconnecting, budget spent: queued ops buy one redial
	lastWire     time.Time          // last successful wire activity
	cond         *sync.Cond         // flusher waits for queue work / window space
	queue        []*pipeOp          // enqueued reads, not yet on the wire
	wqueue       []*pipeOp          // enqueued writes, not yet on the wire
	inflight     int                // read operations on the wire
	inflightW    int                // write operations on the wire
	nextTag      uint32
	pending      map[uint32][]*pipeOp // tag -> ops awaiting the tagged reply
	err          error                // sticky transport/close error

	// flushMu is held by the flusher while it encodes and writes what it
	// planned, i.e. while it reads registered ops' buffers without mu.
	// connFail and fail close the connection and pass through it before
	// completing registered ops, so no caller gets its buffer back while
	// the encoder still reads it.
	flushMu sync.Mutex

	rng  *rand.Rand    // backoff jitter; only the reconnect winner uses it
	stop chan struct{} // closed by fail: aborts backoff sleeps
	wg   sync.WaitGroup

	// The session's shape, immutable after construction: every
	// connection of this client opens with the same hello.
	hello    rdma.Hello
	trace    bool // tagged frames carry the trace extension
	compress bool // batch segments may be compressed (LZ, bit-packed words)

	metrics *pipeMetrics
	hub     *obs.TraceHub  // nil = no tracing
	shard   string         // attribution/slow-op shard label
	attrib  *attribCache   // reader-goroutine-owned; nil without Obs+Trace
	cpolicy compressPolicy // per-DS adaptive compression state
}

// sayHello runs the client half of the handshake on a fresh connection
// (rdma/hello.go), plain-framed and bounded by d when > 0. Only
// checksummed evidence is definitive: a reply whose record passes its
// self-check and differs from h is ErrProtoMismatch. Everything else —
// an I/O error, a reply that fails its checksum, a refusal from a peer
// of our own version (it did not see the hello we sent) — is a transport
// fault, retried like any other.
func sayHello(conn io.ReadWriteCloser, d time.Duration, h rdma.Hello, m *pipeMetrics) error {
	g := guardIO(conn, d)
	req := rdma.HelloFrame(rdma.OpHello, h)
	// One Write for the whole frame: a fault injected into "the hello"
	// must not find it split into header and record.
	var out bytes.Buffer
	rdma.WriteFrame(&out, req)
	_, err := conn.Write(out.Bytes())
	var resp rdma.Frame
	if err == nil {
		resp, err = rdma.ReadFrame(conn)
	}
	if err = g.finish(err); err != nil {
		return fmt.Errorf("remote: hello: %w", err)
	}
	if m != nil {
		m.bytesOut.Add(req.WireSize())
		m.bytesIn.Add(resp.WireSize())
	}
	peer, err := rdma.DecodeHello(resp.Payload)
	switch {
	case err != nil:
		return fmt.Errorf("remote: hello reply %s: %w", resp.Op, err)
	case resp.Op == rdma.OpOK && peer == h:
		return nil
	case resp.Op == rdma.OpOK:
		return fmt.Errorf("%w: asked for version %d options %#x, server answered version %d options %#x",
			ErrProtoMismatch, h.Version, h.Opts, peer.Version, peer.Opts)
	case resp.Op == rdma.OpErr && peer.Version != h.Version:
		return fmt.Errorf("%w: client speaks version %d, server version %d: %s",
			ErrProtoMismatch, h.Version, peer.Version, resp.Payload[rdma.HelloSize:])
	}
	return fmt.Errorf("remote: hello refused (%s): %s", resp.Op, resp.Payload[rdma.HelloSize:])
}

// NewPipelined says hello on conn and, once the server has echoed it,
// returns a running pipelined client.
func NewPipelined(conn io.ReadWriteCloser, opts PipelineOpts) (*PipelinedClient, error) {
	h := rdma.Hello{Version: rdma.ProtoVersion}
	if opts.Trace != nil {
		h.Opts |= rdma.OptTrace
	}
	if on, err := CompressionOn(opts.Compression); err != nil {
		return nil, err
	} else if on {
		h.Opts |= rdma.OptCompress
	}
	metrics := newPipeMetrics(opts.Obs)
	if err := sayHello(conn, opts.Timeout, h, metrics); err != nil {
		return nil, err
	}
	c := &PipelinedClient{
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, 64<<10),
		br:       bufio.NewReaderSize(conn, connBufSize),
		opts:     opts.withDefaults(),
		lastWire: time.Now(),
		pending:  make(map[uint32][]*pipeOp),
		rng:      newRng(opts.Seed),
		stop:     make(chan struct{}),
		hello:    h,
		trace:    h.Opts&rdma.OptTrace != 0,
		compress: h.Opts&rdma.OptCompress != 0,
		metrics:  metrics,
		hub:      opts.Trace,
		shard:    opts.Shard,
	}
	if opts.Trace != nil {
		c.attrib = newAttribCache(opts.Obs, opts.Shard)
	}
	c.cond = sync.NewCond(&c.mu)
	c.wg.Add(2)
	go c.flushLoop()
	go c.readLoop()
	return c, nil
}

// CompressionOn reports whether a PipelineOpts.Compression mode
// compresses, refusing a value that is not one.
func CompressionOn(mode string) (bool, error) {
	if mode != "" && mode != "adaptive" && mode != "off" {
		return false, fmt.Errorf(`remote: Compression %q: want "" or "adaptive" (adaptive) or "off" (raw)`, mode)
	}
	return mode != "off", nil
}

// DialPipelined connects to a server address and says hello. A client
// dialed by address knows how to redial it: opts.Redial defaults to
// that. With RetryMax > 0 the initial dial and handshake retry under the
// reconnects' backoff, RetryMax times, so a flaky link at startup is
// survived too; otherwise the first failure is returned.
func DialPipelined(addr string, opts PipelineOpts) (c *PipelinedClient, err error) {
	if _, err := CompressionOn(opts.Compression); err != nil {
		return nil, err
	}
	dial := redialer(addr, opts.Timeout)
	if opts.Redial == nil {
		opts.Redial = dial
	}
	err = retry(max(opts.RetryMax, 0)+1, 1, newRng(opts.Seed), opts, nil, nil, func() error {
		conn, err := dial()
		if err == nil {
			if c, err = NewPipelined(conn, opts); err != nil {
				conn.Close()
			}
		}
		return err
	})
	return c, err
}

// retry is the one backoff loop, the start-up dial's and the
// reconnect's: it calls try up to attempts times, backing off before
// each call from the paced-th on, until one succeeds (nil) or a
// checksummed ErrProtoMismatch, which no backoff can change. It returns
// the last error (err when none ran), ErrClientClosed once stop closes.
func retry(attempts, paced int, rng *rand.Rand, o PipelineOpts, stop <-chan struct{}, err error, try func() error) error {
	for k := 0; k < attempts && !errors.Is(err, ErrProtoMismatch); k++ {
		if k >= paced {
			select {
			case <-stop:
				return ErrClientClosed
			case <-time.After(backoff(rng, o.RetryBase, o.RetryCap, k-paced)):
			}
		}
		if err = try(); err == nil {
			return nil
		}
	}
	return err
}

// newRng seeds a backoff jitter source; seed 0 uses a fixed default so
// runs stay reproducible.
func newRng(seed int64) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed))
}

// redialer is the one place a TCP connect happens, bounded by timeout
// when > 0: a black-holed backend costs its caller one Timeout, not the
// kernel's SYN-retry minutes. The indirection also avoids the typed-nil
// trap: returning (*net.TCPConn)(nil) in an io.ReadWriteCloser interface
// would compare non-nil.
func redialer(addr string, timeout time.Duration) func() (io.ReadWriteCloser, error) {
	return func() (io.ReadWriteCloser, error) {
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
		}
		return conn, nil
	}
}

// The names benchmark/ still spells the one client by. That directory is
// frozen for this change; the next issue that owns it deletes this
// block. Nothing outside benchmark/ may use it.
type (
	Resilient  = PipelinedClient
	DialConfig = PipelineOpts
	StoreConn  interface {
		ReadObj(ds, idx int, dst []byte) error
		WriteObj(ds, idx int, src []byte) error
		Ping() error
		Close() error
	}
)

func DialResilient(addr string, cfg DialConfig) (*Resilient, error) { return DialPipelined(addr, cfg) }

// enqueue hands an operation to the flusher (never blocks on the wire).
// Reads and writes queue separately so each window fills independently.
func (c *PipelinedClient) enqueue(op *pipeOp) {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		op.complete(err)
		return
	}
	if c.metrics != nil || c.hub != nil {
		op.start = time.Now()
	}
	if c.hub != nil {
		// The root layer (a deref miss, a prefetcher, the write-back
		// stager) installs its span context synchronously around the call
		// that lands here; picking it up is one atomic load.
		op.ctx = c.hub.Active()
	}
	if op.write {
		c.wqueue = append(c.wqueue, op)
	} else {
		c.queue = append(c.queue, op)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// IssueRead implements farmem.AsyncStore: it starts filling dst and
// returns immediately; done is invoked exactly once (possibly on the
// reader goroutine) when dst is filled or the read failed. done must not
// block.
func (c *PipelinedClient) IssueRead(ds, idx int, dst []byte, done func(error)) {
	c.enqueue(readOp(ds, idx, dst, done))
}

// IssueReadWire implements farmem.WireReadStore: IssueRead, but a raw,
// zero or words segment — checked (rdma.CheckWords) — lands in dst as it
// came, named by *blk. An LZ block, whose check is a decode, is decoded.
func (c *PipelinedClient) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	op := readOp(ds, idx, dst, done)
	op.blk = blk
	c.enqueue(op)
}

// IssueReadEpoch (replica.EpochBackend) is IssueRead returning the
// object's stored epoch stamp; a zero-length dst is a pure epoch probe.
// A stamped op is the plain verb's with wantEp set, so rdma.EpochBit
// keeps it out of plain ops' frames.
func (c *PipelinedClient) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	op := readOp(ds, idx, dst, nil)
	op.wantEp, op.done = true, func(err error) { done(op.epoch, err) }
	c.enqueue(op)
}

// readOp is the op every read verb enqueues.
func readOp(ds, idx int, dst []byte, done func(error)) *pipeOp {
	return &pipeOp{ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)), dst: dst, done: done}
}

// IssueWrite implements farmem.AsyncWriteStore: a range write with no
// extents.
func (c *PipelinedClient) IssueWrite(ds, idx int, src []byte, done func(error)) {
	c.IssueWriteRanges(ds, idx, src, nil, done)
}

// wait enqueues op and blocks until it completes: every synchronous
// call is issue + wait over the same pipeline.
func (c *PipelinedClient) wait(op *pipeOp) error {
	op.ch = make(chan error, 1)
	c.enqueue(op)
	return <-op.ch
}

// ReadObj implements farmem.Store.
func (c *PipelinedClient) ReadObj(ds, idx int, dst []byte) error {
	return c.wait(readOp(ds, idx, dst, nil))
}

// WriteObj implements farmem.Store. The write rides the same pipeline
// (tagged frame) and returns once the server acknowledges it; src must
// stay unmodified until then, which the blocking call guarantees. If the
// connection fails before the ack, the error is ErrUncertainWrite: the
// transport does not know whether the server applied it and will not
// guess.
func (c *PipelinedClient) WriteObj(ds, idx int, src []byte) error {
	return c.wait(writeOp(ds, idx, src, nil, nil))
}

// Ping checks liveness by round-tripping an empty read batch through the
// full pipeline — it doubles as a fence: when it returns, every
// operation enqueued before it has been issued. Probes are transport
// plumbing, not workload: they skip the slow-op recorder and the
// attribution series, which otherwise report a rootless ds0[0] "read"
// for every connection setup and breaker probe.
func (c *PipelinedClient) Ping() error { return c.wait(&pipeOp{probe: true}) }

// Close fails all queued and in-flight operations with ErrClientClosed,
// closes the connection, and waits for the background goroutines. A
// reconnect in progress aborts at its next cancellation point.
func (c *PipelinedClient) Close() error {
	c.fail(ErrClientClosed)
	c.wg.Wait()
	return nil
}

// fail marks the client broken permanently: completes everything
// outstanding with err, wakes the loops, aborts reconnect sleeps, and
// closes the current connection (unblocking the reader and a flusher
// stuck in a write). First caller wins; later failures are ignored.
func (c *PipelinedClient) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	queued := append(c.queue, c.wqueue...)
	c.queue, c.wqueue = nil, nil
	pend := c.harvestLocked()
	conn := c.conn
	c.cond.Broadcast()
	c.mu.Unlock()

	close(c.stop)
	conn.Close()
	c.flushMu.Lock() // wait out an encode still reading these ops' buffers
	c.flushMu.Unlock()
	for _, op := range append(queued, pend...) {
		op.complete(err)
	}
}

// harvestLocked empties the in-flight windows and returns their ops in
// tag (issue) order. Caller holds mu.
func (c *PipelinedClient) harvestLocked() []*pipeOp {
	tags := make([]uint32, 0, len(c.pending))
	for tag := range c.pending {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	var ops []*pipeOp
	for _, tag := range tags {
		ops = append(ops, c.pending[tag]...)
	}
	c.pending = make(map[uint32][]*pipeOp)
	c.inflight, c.inflightW = 0, 0
	c.publishDepth()
	return ops
}

// publishDepth sets the window gauges. Caller holds mu.
func (c *PipelinedClient) publishDepth() {
	if m := c.metrics; m != nil {
		m.inflight.Set(int64(c.inflight))
		m.inflightWrites.Set(int64(c.inflightW))
	}
}

// connFail handles a transport fault on connection generation gen: the
// first reporter for the live generation wins and runs the reconnect;
// stale reports (an already-replaced connection, a client already
// reconnecting or down) and racing reporters return immediately. Without
// a Redial the fault is final.
func (c *PipelinedClient) connFail(gen uint64, cause error) {
	c.mu.Lock()
	if c.err != nil || c.gen != gen || c.reconnecting {
		c.mu.Unlock()
		return
	}
	if c.opts.Redial == nil {
		c.mu.Unlock()
		c.fail(cause)
		return
	}
	c.reconnecting = true
	old := c.conn
	c.mu.Unlock()

	// Close first — it unblocks a flusher stuck in a write — then wait
	// out its encode: it plans nothing new while reconnecting is set, so
	// past this barrier nobody reads a registered op's buffers.
	old.Close()
	c.flushMu.Lock()
	c.flushMu.Unlock()

	// Harvest the windows. Reads are idempotent: they go back to the
	// queue head, to be reissued under fresh tags. Registered writes may
	// or may not have been applied (some never left the encoder, which is
	// indistinguishable from here): they complete with ErrUncertainWrite
	// and the caller decides. Writes still queued never touched the wire
	// and simply stay queued.
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return // fail ran meanwhile and completed everything outstanding
	}
	harvested := c.harvestLocked()
	c.mu.Unlock()
	c.requeueOps(harvested, cause)

	retryMax := c.opts.RetryMax
	if retryMax == 0 {
		retryMax = DefaultReconnectAttempts
	}
	c.redial(retryMax, 0, cause)
}

// redial makes up to attempts tries at a fresh session (retry, pacing
// from the paced-th) and resumes the loops on the first that says hello.
// When none does — or attempts allows none — the client is down:
// everything queued completes with the last error (cause, when nothing
// was tried) and the loops stay parked until the flusher spends the next
// queued ops on one unpaced attempt.
func (c *PipelinedClient) redial(attempts, paced int, cause error) {
	var nc io.ReadWriteCloser
	err := retry(attempts, paced, c.rng, c.opts, c.stop, cause, func() (err error) {
		if nc, err = c.opts.Redial(); err == nil {
			if err = sayHello(nc, c.opts.Timeout, c.hello, c.metrics); err != nil {
				nc.Close()
			}
		}
		return err
	})
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		if err == nil {
			nc.Close()
		}
		return // Close ran meanwhile and completed everything outstanding
	}
	if err == nil {
		c.conn = nc
		c.bw = bufio.NewWriterSize(nc, 64<<10)
		c.br = bufio.NewReaderSize(nc, connBufSize)
		c.gen++
		c.reconnecting, c.down = false, false
		c.lastWire = time.Now()
		if m := c.metrics; m != nil {
			m.reconnects.Inc()
		}
		c.cond.Broadcast()
		c.mu.Unlock()
		return
	}
	c.down = true
	queued := append(c.queue, c.wqueue...)
	c.queue, c.wqueue = nil, nil
	c.mu.Unlock()
	err = fmt.Errorf("remote: reconnect failed: %w", err)
	for _, op := range queued {
		op.complete(err)
	}
}

// requeueOps returns ops harvested from a bad reply to the pipeline:
// reads go back to the queue head for replay, writes complete with
// ErrUncertainWrite. If the client already failed, everything completes
// with the sticky error instead.
func (c *PipelinedClient) requeueOps(ops []*pipeOp, cause error) {
	var reads, writes []*pipeOp
	for _, op := range ops {
		if op.write {
			writes = append(writes, op)
		} else {
			op.attempts++
			reads = append(reads, op)
		}
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		for _, op := range ops {
			op.complete(err)
		}
		return
	}
	c.queue = append(append(make([]*pipeOp, 0, len(reads)+len(c.queue)), reads...), c.queue...)
	if m := c.metrics; m != nil {
		m.replayedReads.Add(uint64(len(reads)))
		m.uncertainWrites.Add(uint64(len(writes)))
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	uerr := uncertain(cause)
	for _, op := range writes {
		op.complete(uerr)
	}
}

// flushable reports whether the flusher has something to do right now:
// work it can put on the wire or, on a down client, queued ops to spend
// on a redial (caller holds mu).
func (c *PipelinedClient) flushable() bool {
	if c.reconnecting {
		return c.down && len(c.queue)+len(c.wqueue) > 0
	}
	return (len(c.queue) > 0 && c.inflight < c.opts.Window) ||
		(len(c.wqueue) > 0 && c.inflightW < c.opts.Window)
}

// plannedFrame is one batch the flusher registered under mu and then
// encodes and writes outside it.
type plannedFrame struct {
	tag uint32
	ops []*pipeOp
	ctx obs.SpanContext // traced sessions: the context its trace block carries
}

// flushLoop is the doorbell: it waits for queued work and window space,
// plans as much of both queues as fits onto the wire, encodes and writes
// the planned frames, and flushes the buffered writer once per wakeup.
// It parks while a reconnect is in progress and resumes against the
// fresh connection; on a down client it is also who redials.
//
// Under mu it only plans. Gathering extents, the scan, compression and
// bit-packing happen outside it (under flushMu), so enqueue and
// takePending never wait on a compressor. Registering a batch before
// its frame exists changes nothing a fault can observe: connFail
// harvests it exactly like a frame already written — reads replay,
// writes complete ErrUncertainWrite.
func (c *PipelinedClient) flushLoop() {
	defer c.wg.Done()
	var plans []plannedFrame // scratch, reused across wakeups
	var sc flushScratch
	for {
		c.mu.Lock()
		for c.err == nil && !c.flushable() {
			c.cond.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		if c.down {
			c.mu.Unlock()
			c.redial(1, 1, nil)
			continue
		}
		gen, bw := c.gen, c.bw
		plans = c.planLocked(plans[:0])
		c.flushMu.Lock()
		c.mu.Unlock()

		var werr error
		for _, p := range plans {
			f, err := c.encode(p, &sc)
			if err != nil {
				// Unreachable by construction (popRun bounds every frame); fail
				// loudly rather than drop ops on the floor.
				c.flushMu.Unlock()
				c.fail(err)
				return
			}
			werr = rdma.WriteFrameCRC(bw, f)
			rdma.PutBuf(f.Payload)
			if werr != nil {
				break
			}
			if m := c.metrics; m != nil {
				n := f.WireSize()
				m.bytesOut.Add(n)
				m.wire.add(f.Op, n)
				if p.ops[0].write {
					m.batchWrites.Observe(uint64(len(p.ops)))
				} else {
					m.batchReads.Observe(uint64(len(p.ops)))
				}
			}
		}
		if werr == nil {
			werr = bw.Flush()
		}
		c.flushMu.Unlock()
		if werr != nil {
			// The ops this wakeup registered are harvested by connFail
			// (requeued or completed uncertain); the loop parks until the
			// fresh connection is up.
			c.connFail(gen, werr)
			continue
		}
		c.mu.Lock()
		c.lastWire = time.Now()
		c.mu.Unlock()
	}
}

// planLocked moves as much of both queues as their windows admit into
// registered batches: pop a run, charge its window, give it a tag. On a
// traced session it also fixes each op's doorbell time and the batch's
// span context here, under the lock the reader takes before it reads
// them. Caller holds mu.
func (c *PipelinedClient) planLocked(plans []plannedFrame) []plannedFrame {
	var now time.Time
	if c.trace {
		now = time.Now() // doorbell timestamp shared by this wakeup's ops
	}
	window := c.opts.Window
	for _, w := range [2]struct {
		q        *[]*pipeOp
		inflight *int
	}{{&c.queue, &c.inflight}, {&c.wqueue, &c.inflightW}} {
		for len(*w.q) > 0 && *w.inflight < window {
			ops := popRun(w.q, min(c.opts.MaxBatch, window-*w.inflight))
			*w.inflight += len(ops)
			c.nextTag++
			c.pending[c.nextTag] = ops
			p := plannedFrame{tag: c.nextTag, ops: ops}
			if c.trace {
				p.ctx = stampOps(ops, now)
			}
			plans = append(plans, p)
		}
	}
	c.publishDepth()
	return plans
}

// popRun pops the longest run at the head of *q that can ride one
// frame: at most max ops sharing a request opcode, whose worst-case
// frame stays within rdma.MaxFrame. The run is copied out and its slots
// cleared: aliasing the queue's backing array would pin every op still
// in that array — and the buffers they point at — until the run's reply
// arrived (measured: +8 % peak RSS on the analytics workload). Caller
// holds mu.
func popRun(q *[]*pipeOp, max int) []*pipeOp {
	req, size, n := (*q)[0].reqOp(), rdma.BatchHdrBound, 0
	for n < max && n < len(*q) {
		op := (*q)[n]
		b := op.wireBound()
		if n > 0 && (op.reqOp() != req || size+b > rdma.MaxFrame) {
			break
		}
		size += b
		n++
	}
	ops := append([]*pipeOp(nil), (*q)[:n]...)
	clear((*q)[:n])
	if *q = (*q)[n:]; len(*q) == 0 {
		*q = nil // release the drained backing array
	}
	return ops
}

// stampOps records the doorbell time on every op of a traced session's
// batch and picks the span context its frame will carry. Every tagged
// frame of such a session carries the fixed-size extension — an
// all-zero context when nothing in the batch is traced — so both sides'
// framing stays deterministic. When the batch mixes traces, the first
// sampled op's context wins (the server can label its span with only
// one).
func stampOps(ops []*pipeOp, now time.Time) obs.SpanContext {
	var ctx obs.SpanContext
	for _, op := range ops {
		op.sentAt = now
		if op.ctx.Sampled && !ctx.Sampled {
			ctx = op.ctx
		}
	}
	if !ctx.Sampled {
		for _, op := range ops {
			if op.ctx.TraceID != 0 {
				return op.ctx
			}
		}
	}
	return ctx
}

// flushScratch is the flusher's reusable encode state. Nothing in it
// outlives one frame.
type flushScratch struct {
	reads  []rdma.ReadReq
	chases []rdma.ChaseReq
	writes []rdma.WriteReqC
	bufs   [][]byte // pooled gather/compress buffers of the frame in progress
}

// encode builds the frame of one planned batch, its payload pooled:
// one encoder per family — reads, chases, writes — with the epoch
// modifier just the bit reqOp puts on the opcode. It runs outside mu and
// reads only what is immutable once an op is enqueued, plus the buffers
// flushMu pins.
func (c *PipelinedClient) encode(p plannedFrame, sc *flushScratch) (f rdma.Frame, err error) {
	switch head := p.ops[0]; {
	case head.write:
		f, err = c.encodeWrites(p, sc)
	case head.chase:
		sc.chases = sc.chases[:0]
		for _, op := range p.ops {
			sc.chases = append(sc.chases, op.creq)
		}
		f = rdma.EncodeChaseBatchPooled(p.tag, sc.chases)
	default:
		sc.reads = sc.reads[:0]
		for _, op := range p.ops {
			sc.reads = append(sc.reads, rdma.ReadReq{DS: op.ds, Idx: op.idx, Size: op.size})
		}
		f = rdma.EncodeReadBatchCPooled(p.tag, sc.reads)
		f.Op = head.reqOp()
	}
	if c.trace {
		f.SetTraceCtx(p.ctx.TraceID, p.ctx.SpanID, p.ctx.Sampled)
	}
	return f, err
}

// replyScratch is the reader's reusable decode state.
type replyScratch struct {
	segs   []rdma.DataSegC
	chases []rdma.ChaseResult
	acks   []uint64 // ACKBATCH-C reject bitmap
}

// readLoop demultiplexes completions by tag. Any transport-level
// problem — read error, checksum mismatch, unknown tag, malformed
// batch — reports the connection generation to connFail and parks until
// reconnected (or until the client fails for good). Frame payloads are
// pooled: each is released back to the rdma buffer pool as soon as its
// contents are copied out or formatted into an error.
//
// Per frame it takes mu once, in takePending. The read deadline is the
// stall detector's clock and is re-armed exactly where a read can block:
// a reply already whole in the buffer cannot, so a burst of replies costs
// one deadline, while a partly buffered one still gets a fresh one — a
// deadline that fires mid-frame desynchronizes the stream.
func (c *PipelinedClient) readLoop() {
	defer c.wg.Done()
	var sc replyScratch
session:
	for {
		c.mu.Lock()
		for c.err == nil && c.reconnecting {
			c.cond.Wait()
		}
		if c.err != nil {
			c.mu.Unlock()
			return
		}
		gen, conn, fr := c.gen, c.conn, rdma.NewFrameReader(c.br, c.trace)
		c.mu.Unlock()
		dl, _ := conn.(connDeadline)
		if c.opts.Timeout <= 0 {
			dl = nil
		}
		for {
			if dl != nil && !fr.Buffered() {
				dl.SetReadDeadline(time.Now().Add(c.opts.Timeout))
			}
			f, err := fr.Read()
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					// An idle connection hitting the read deadline is benign:
					// nothing is owed. With ops in flight and no wire activity
					// for a full Timeout, the stream is stalled — abandon it.
					// (A deadline that fired mid-frame desynchronizes the
					// stream; the next read then fails the tag or checksum
					// check and converges to the same reconnect.)
					c.mu.Lock()
					stalled := c.gen == gen && (c.inflight > 0 || c.inflightW > 0) &&
						time.Since(c.lastWire) >= c.opts.Timeout
					c.mu.Unlock()
					if !stalled {
						continue
					}
					if m := c.metrics; m != nil {
						m.timeouts.Inc()
					}
					err = fmt.Errorf("%w (no reply in %v with ops in flight)", ErrTimeout, c.opts.Timeout)
				}
				c.connFail(gen, err)
				continue session
			}
			if m := c.metrics; m != nil {
				m.bytesIn.Add(f.WireSize())
				m.wire.add(f.Op, f.WireSize())
			}
			var bad error
			ops, ok := c.takePending(f.Tag)
			if ok {
				ops, bad = c.deliver(&f, ops, &sc)
			} else {
				bad = fmt.Errorf("remote: unknown completion tag %d (%s)", f.Tag, f.Op)
			}
			rdma.PutBuf(f.Payload)
			if bad != nil {
				// Framing is untrustworthy past this point. What the reply left
				// unanswered goes back through the fault path — reads replay on
				// a fresh connection, writes surface as uncertain (a torn ack
				// makes the batch outcome unknowable) — and the stream is
				// abandoned.
				c.requeueOps(ops, bad)
				c.connFail(gen, bad)
				continue session
			}
		}
	}
}

// deliver completes ops from the reply frame that answered their tag.
// It returns the ops it could not complete and why; a nil error means
// the frame was consumed whole. Only the reply shape the batch's request
// asked for is accepted. ERRTAG is the server's definitive refusal: the
// connection is fine and the answer is final — never retried.
func (c *PipelinedClient) deliver(f *rdma.Frame, ops []*pipeOp, sc *replyScratch) ([]*pipeOp, error) {
	if f.Op == rdma.OpErrTag {
		err := fmt.Errorf("remote: server error: %s", f.Payload)
		for _, op := range ops {
			op.complete(err)
		}
		return nil, nil
	}
	req := ops[0].reqOp()
	if f.Op != replyOp(req) {
		return ops, fmt.Errorf("remote: unexpected frame %s answering %s", f.Op, req)
	}
	var done int
	var err error
	switch f.Op {
	case rdma.OpAckBatchC:
		done, err = c.deliverAcks(f, ops, sc)
	case rdma.OpChaseData:
		done, err = c.deliverChases(f, ops, sc)
	default:
		done, err = c.deliverData(f, ops, sc)
	}
	return ops[done:], err
}

// deliverData fills each read's destination from its DATABATCH-C
// segment, or for IssueReadWire keeps all but LZ as it came, and returns
// how many reads completed. A corrupt compressed
// block behind a valid checksum stops it mid-frame: the completed
// prefix stands (reads are idempotent), the rest is the caller's to
// replay.
func (c *PipelinedClient) deliverData(f *rdma.Frame, ops []*pipeOp, sc *replyScratch) (int, error) {
	segs, err := rdma.DecodeDataSegsInto(f.Payload, sc.segs[:0], f.Op&rdma.EpochBit != 0)
	if err != nil {
		return 0, err
	}
	sc.segs = segs
	if len(segs) != len(ops) {
		return 0, fmt.Errorf("remote: %s has %d segments, want %d", f.Op, len(segs), len(ops))
	}
	for i := range segs {
		if int(segs[i].RawLen) != len(ops[i].dst) {
			return 0, fmt.Errorf("remote: %s segment %d is %d bytes, want %d", f.Op, i, segs[i].RawLen, len(ops[i].dst))
		}
	}
	for i, op := range ops {
		seg := &segs[i]
		switch {
		case op.blk == nil || seg.Scheme == rdma.SchemeLZ:
			if err := rdma.UnpackBlock(seg.Scheme, op.dst, seg.Data); err != nil {
				return i, err
			}
		case seg.Scheme == rdma.SchemeWords && !rdma.CheckWords(seg.Data, len(op.dst)):
			return i, rdma.ErrCorrupt
		default:
			*op.blk = rdma.Block{Scheme: seg.Scheme, Len: copy(op.dst, seg.Data)}
		}
		op.epoch = seg.Epoch
		c.finishOp(op, f)
		op.complete(nil)
	}
	return len(ops), nil
}

// deliverAcks completes a write batch from its ACKBATCH-C. A set
// rejected bit is the peer refusing to splice onto a stale base: a
// definitive completion, not a transport fault — the replication layer
// marks the member divergent and resyncs it with full objects.
func (c *PipelinedClient) deliverAcks(f *rdma.Frame, ops []*pipeOp, sc *replyScratch) (int, error) {
	n, rejected, any, err := rdma.DecodeAckBatchC(f.Payload, sc.acks)
	if rejected != nil {
		sc.acks = rejected
	}
	if err == nil && n != len(ops) {
		err = fmt.Errorf("remote: ACKBATCH-C acknowledges %d writes, want %d", n, len(ops))
	}
	if err != nil {
		return 0, err
	}
	for i, op := range ops {
		if any && rejected[i/64]&(1<<(uint(i)%64)) != 0 {
			op.complete(ErrStaleRangeBase)
			continue
		}
		c.finishOp(op, f)
		op.complete(nil)
	}
	return len(ops), nil
}

// deliverChases hands each traversal its decoded, caller-owned path.
func (c *PipelinedClient) deliverChases(f *rdma.Frame, ops []*pipeOp, sc *replyScratch) (int, error) {
	res, err := rdma.DecodeChaseDataInto(f.Payload, sc.chases)
	if err == nil && len(res) != len(ops) {
		err = fmt.Errorf("remote: CHASEDATA has %d results, want %d", len(res), len(ops))
	}
	if err != nil {
		return 0, err
	}
	sc.chases = res
	for i, op := range ops {
		op.cres = copyChaseResult(res[i])
		c.finishOp(op, f)
		op.complete(nil)
	}
	return len(ops), nil
}

// takePending removes and returns the ops registered under tag, freeing
// their window slots (a tag's ops are homogeneous: all reads or all
// writes, so one op decides which window drains). A frame arrived, so it
// also stamps the stall detector's last wire activity.
func (c *PipelinedClient) takePending(tag uint32) ([]*pipeOp, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastWire = time.Now()
	ops, ok := c.pending[tag]
	if !ok {
		return nil, false
	}
	delete(c.pending, tag)
	if len(ops) > 0 && ops[0].write {
		c.inflightW -= len(ops)
	} else {
		c.inflight -= len(ops)
	}
	c.publishDepth()
	c.cond.Broadcast()
	return ops, true
}

// Op label values for slow-op records and merged spans.
const (
	opNameRead  = "read"
	opNameWrite = "write"
)

// finishOp accounts one successfully completed op. Beyond the latency
// histograms, on a traced session with a stamped reply it decomposes
// the op into its four clock-offset-free components —
//
//	total        = complete − enqueue
//	client_queue = doorbell − enqueue
//	rtt          = complete − doorbell
//	server busy  = queue + service        (from the server's stamp)
//	wire         = rtt − busy, clamped ≥ 0 (the residual: both directions)
//
// so client_queue + wire + server_queue + server_service == total by
// construction — then feeds the cards_attrib_* series and the slow-op
// flight recorder, and (for sampled ops) emits the merged client+server
// spans, placing the server's busy time midway through the wire
// residual (the unbiased placement without synchronized clocks). Runs
// on the reader goroutine; off the sampled path it allocates nothing.
func (c *PipelinedClient) finishOp(op *pipeOp, reply *rdma.Frame) {
	if m := c.metrics; m != nil && !op.start.IsZero() {
		h := m.readNS
		if op.write {
			h = m.writeNS
		}
		h.Observe(uint64(time.Since(op.start).Nanoseconds()))
	}
	if c.hub == nil || !reply.HasExt || op.probe || op.start.IsZero() || op.sentAt.IsZero() {
		return
	}
	_, queueUS, serviceUS := reply.ServerStamp()
	now := time.Now()
	totalUS := uint64(now.Sub(op.start).Microseconds())
	cqUS := uint64(op.sentAt.Sub(op.start).Microseconds())
	rttUS := uint64(now.Sub(op.sentAt).Microseconds())
	busyUS := uint64(queueUS) + uint64(serviceUS)
	var wireUS uint64
	if rttUS > busyUS {
		wireUS = rttUS - busyUS
	}
	c.attrib.observe(op.ds, cqUS, wireUS, uint64(queueUS), uint64(serviceUS))
	name := opNameRead
	if op.write {
		name = opNameWrite
	}
	var nowUS uint64
	if t := c.hub.Tracer; t != nil {
		nowUS = t.Now()
	}
	startUS := nowUS - totalUS
	if totalUS > nowUS {
		startUS = 0
	}
	c.hub.Offer(obs.SlowOp{
		TraceID: op.ctx.TraceID, SpanID: op.ctx.SpanID,
		Op: name, DS: int(op.ds), Idx: int(op.idx), Shard: c.shard,
		Attempts: int(op.attempts) + 1, Sampled: op.ctx.Sampled,
		StartUS: startUS, TotalUS: totalUS,
		ClientQueueUS: cqUS, WireUS: wireUS,
		ServerQueueUS: uint64(queueUS), ServerServiceUS: uint64(serviceUS),
	})
	if !op.ctx.Sampled || c.hub.Tracer == nil {
		return
	}
	sentUS := nowUS - rttUS
	c.hub.Emit(obs.TraceEvent{
		TS: startUS, Dur: totalUS, Cat: "remote", Name: name,
		TID: int(op.ds), Trace: op.ctx.TraceID,
		Arg1Name: "attempts", Arg1: int64(op.attempts) + 1,
		Arg2Name: "obj", Arg2: int64(op.idx),
	})
	c.hub.Emit(obs.TraceEvent{
		TS: sentUS + wireUS/2, Dur: uint64(queueUS),
		Cat: "server", Name: "queue",
		TID: int(op.ds), Trace: op.ctx.TraceID,
	})
	c.hub.Emit(obs.TraceEvent{
		TS: sentUS + wireUS/2 + uint64(queueUS), Dur: uint64(serviceUS),
		Cat: "server", Name: "service",
		TID: int(op.ds), Trace: op.ctx.TraceID,
	})
}
