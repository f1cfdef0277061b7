package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// Burst-buffered frame I/O, checked by counting calls on the
// connection rather than timing them.

// countConn counts the Read and Write calls one side issues on its
// connection and remembers the smallest buffer it ever offered a Read.
type countConn struct {
	io.ReadWriteCloser
	writes, dataReads atomic.Int64
	minReadBuf        atomic.Int64
}

func newCountConn(c io.ReadWriteCloser) *countConn {
	cc := &countConn{ReadWriteCloser: c}
	cc.minReadBuf.Store(1 << 62)
	return cc
}

func (c *countConn) Read(p []byte) (int, error) {
	// One goroutine reads a connection (the frame loop); the atomics only
	// order it with the test goroutine's loads and resets.
	if int64(len(p)) < c.minReadBuf.Load() {
		c.minReadBuf.Store(int64(len(p)))
	}
	n, err := c.ReadWriteCloser.Read(p)
	if n > 0 {
		c.dataReads.Add(1)
	}
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.ReadWriteCloser.Write(p)
}

// TestSyncReadCostsOneWritePerSide: a synchronous ReadObj is one Write by the client (the doorbell) and one
// Write by the server (header, payload and CRC trailer assembled in its
// buffered writer), and neither side ever reads a frame field by field:
// every Read offers the whole connection buffer, so it takes whatever
// the transport has.
func TestSyncReadCostsOneWritePerSide(t *testing.T) {
	obj := make([]byte, 4096)
	rand.New(rand.NewSource(9)).Read(obj) // incompressible: the reply carries all 4 KiB

	run := func(t *testing.T, cconn, sconn *countConn, cl *PipelinedClient, exactReads bool) {
		if err := cl.WriteObj(1, 1, obj); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(obj))
		if err := cl.ReadObj(1, 1, got); err != nil { // warm-up
			t.Fatal(err)
		}
		// The hello reads the client's raw connection field by field
		// (plain framing, before the reader exists); count from here.
		cconn.minReadBuf.Store(1 << 62)
		cw, sw := cconn.writes.Load(), sconn.writes.Load()
		cr, sr := cconn.dataReads.Load(), sconn.dataReads.Load()
		const ops = 16
		for i := 0; i < ops; i++ {
			clear(got)
			if err := cl.ReadObj(1, 1, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, obj) {
				t.Fatalf("read %d returned wrong bytes", i)
			}
		}
		if n := cconn.writes.Load() - cw; n != ops {
			t.Errorf("client issued %d Writes for %d reads, want one each", n, ops)
		}
		if n := sconn.writes.Load() - sw; n != ops {
			t.Errorf("server issued %d Writes for %d replies, want one each", n, ops)
		}
		if exactReads {
			// net.Pipe hands a Write to the peer's Read whole, so a
			// reader that takes all there is reads once per frame.
			if n := cconn.dataReads.Load() - cr; n != ops {
				t.Errorf("client needed %d Reads for %d replies, want one each", n, ops)
			}
			if n := sconn.dataReads.Load() - sr; n != ops {
				t.Errorf("server needed %d Reads for %d requests, want one each", n, ops)
			}
		}
		for side, c := range map[string]*countConn{"client": cconn, "server": sconn} {
			if m := c.minReadBuf.Load(); m < connBufSize {
				t.Errorf("%s offered a Read only %d bytes (a per-field read), want >= %d", side, m, connBufSize)
			}
		}
	}

	t.Run("pipe", func(t *testing.T) {
		testutil.NoGoroutineLeaks(t)
		c1, c2 := net.Pipe()
		srv := NewServer()
		sconn, cconn := newCountConn(c1), newCountConn(c2)
		done := make(chan struct{})
		go func() { defer close(done); srv.ServeConn(sconn) }()
		cl, err := NewPipelined(cconn, PipelineOpts{})
		if err != nil {
			t.Fatal(err)
		}
		run(t, cconn, sconn, cl, true)
		cl.Close()
		<-done
	})
	t.Run("tcp", func(t *testing.T) {
		testutil.NoGoroutineLeaks(t)
		srv := NewServer()
		wrapped := make(chan *countConn, 1) // one connection is accepted
		srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
			cc := newCountConn(c)
			wrapped <- cc
			return cc
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		cconn := newCountConn(raw)
		cl, err := NewPipelined(cconn, PipelineOpts{})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		run(t, cconn, <-wrapped, cl, false)
	})
}

// TestReconnectDropsDeadGenerationBuffer cuts the link while the
// client's read buffer holds two complete replies plus the first half
// of a third. The complete replies are legitimate and complete their
// reads; the torn one is replayed on the fresh connection; the
// in-flight write surfaces as ErrUncertainWrite (DESIGN.md §13). What the
// test pins is that the half frame dies with its connection: were the
// old reader carried over, its bytes would be parsed ahead of the new
// stream and the fresh session would fail its first checksum.
func TestReconnectDropsDeadGenerationBuffer(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const size = 64
	srvData := func(idx uint32) []byte { return bytes.Repeat([]byte{0xB0 | byte(idx)}, size) }
	scriptData := func(idx uint32) []byte { return bytes.Repeat([]byte{0x50 | byte(idx)}, size) }

	// The real server behind the redial holds different bytes than the
	// scripted first hop returns, so each read shows who answered it.
	srv := NewServer()
	for idx := uint32(0); idx < 3; idx++ {
		srv.Store.Write(1, idx, srvData(idx))
	}
	var served sync.WaitGroup
	defer served.Wait()
	var redials atomic.Int64
	redial := func() (io.ReadWriteCloser, error) {
		redials.Add(1)
		s, c := net.Pipe()
		served.Add(1)
		go func() { defer served.Done(); srv.ServeConn(s) }()
		return c, nil
	}

	c1, c2 := net.Pipe()
	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			defer c1.Close()
			if _, err := stubHello(c1); err != nil {
				return err
			}
			// Three single-read batches and one write batch, in any order.
			var replies [][]byte
			for reads, writes := 0, 0; reads < 3 || writes < 1; {
				f, err := rdma.ReadFrameOpts(c1, true, false)
				if err != nil {
					return err
				}
				switch f.Op {
				case rdma.OpReadBatchC:
					n := 0
					resp, err := stubDataReply(f, func(r rdma.ReadReq) []byte { n++; return scriptData(r.Idx) })
					if err != nil || n != 1 {
						return fmt.Errorf("want single-read batches, got %d reads (%v)", n, err)
					}
					var b bytes.Buffer
					rdma.WriteFrameCRC(&b, resp)
					replies = append(replies, b.Bytes())
					reads++
				case rdma.OpWriteBatchC:
					writes++ // never acknowledged
				default:
					return errors.New("unexpected frame " + f.Op.String())
				}
			}
			wire := append(append(append([]byte(nil), replies[0]...), replies[1]...), replies[2][:len(replies[2])/2]...)
			if len(wire) >= connBufSize {
				return errors.New("burst does not fit the client's read buffer")
			}
			// One Write: net.Pipe hands it to the client's Read whole, so
			// all of it sits in the client's reader when the pipe closes.
			_, err := c1.Write(wire)
			return err
		}()
	}()

	reg := obs.NewRegistry()
	cl, err := NewPipelined(c2, PipelineOpts{
		MaxBatch: 1, Obs: reg,
		Redial: redial, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	dsts := [3][]byte{make([]byte, size), make([]byte, size), make([]byte, size)}
	var rerrs [3]error
	var werr error
	wg.Add(4)
	for i := range dsts {
		i := i
		cl.IssueRead(1, i, dsts[i], func(err error) { rerrs[i] = err; wg.Done() })
	}
	cl.IssueWrite(1, 9, bytes.Repeat([]byte{9}, size), func(err error) { werr = err; wg.Done() })
	wg.Wait()
	if err := <-scriptErr; err != nil {
		t.Fatalf("scripted server: %v", err)
	}

	if !errors.Is(werr, ErrUncertainWrite) {
		t.Errorf("in-flight write completed with %v, want ErrUncertainWrite", werr)
	}
	fromScript, fromServer := 0, 0
	for i := range dsts {
		switch {
		case rerrs[i] != nil:
			t.Errorf("read %d: %v", i, rerrs[i])
		case bytes.Equal(dsts[i], scriptData(uint32(i))):
			fromScript++
		case bytes.Equal(dsts[i], srvData(uint32(i))):
			fromServer++
		default:
			t.Errorf("read %d returned bytes neither server sent: %x", i, dsts[i][:4])
		}
	}
	if fromScript != 2 || fromServer != 1 {
		t.Errorf("%d reads answered from the buffered replies and %d replayed, want 2 and 1", fromScript, fromServer)
	}
	if n := redials.Load(); n != 1 {
		t.Errorf("%d redials, want exactly 1 (the fresh stream must parse cleanly)", n)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricClientReplayedReads]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricClientReplayedReads, got)
	}
	if got := snap.Counters[MetricClientUncertainWrites]; got != 1 {
		t.Errorf("%s = %d, want 1", MetricClientUncertainWrites, got)
	}
}

// gateConn holds every Write back while armed, until the gate opens or
// the connection is closed — a socket whose peer has stopped reading.
type gateConn struct {
	io.ReadWriteCloser
	armed   *atomic.Bool
	blocked chan<- struct{}
	gate    <-chan struct{}
	closed  chan struct{}
	once    sync.Once
}

func newGateConn(c io.ReadWriteCloser, armed *atomic.Bool, blocked chan<- struct{}, gate <-chan struct{}) *gateConn {
	return &gateConn{ReadWriteCloser: c, armed: armed, blocked: blocked, gate: gate, closed: make(chan struct{})}
}

func (g *gateConn) Write(p []byte) (int, error) {
	if g.armed.Load() {
		select {
		case g.blocked <- struct{}{}:
		default:
		}
		select {
		case <-g.gate:
		case <-g.closed:
			return 0, net.ErrClosed
		}
	}
	return g.ReadWriteCloser.Write(p)
}

func (g *gateConn) Close() error {
	g.once.Do(func() { close(g.closed) })
	return g.ReadWriteCloser.Close()
}

// TestServerDrainDeliversStagedReplies: a reply that has been staged
// (its batch served, its burst's Write under way) when Drain starts still
// reaches the client. A request counts as in flight until its reply is
// written, so Drain cannot close a connection with a reply staged.
func TestServerDrainDeliversStagedReplies(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	var armed atomic.Bool
	blocked := make(chan struct{}, 1)
	gate := make(chan struct{})
	srv, dial := burstServer(true, func(c io.ReadWriteCloser) io.ReadWriteCloser {
		return newGateConn(c, &armed, blocked, gate)
	})
	const n = 8
	for i := 0; i < n; i++ {
		srv.Store.Write(2, uint32(i), []byte{byte(i), 0xD7})
	}
	sess, _ := dial(t)

	armed.Store(true)
	frames := make([]rdma.Frame, n)
	for i := range frames {
		frames[i] = readsOf(2, i, 1, 2)
	}
	wire, tags := sess.burst(frames...) // one doorbell: one read burst at the server
	if _, err := sess.conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	<-blocked // the burst's replies are staged: their Write is parked at the gate
	if reads, _ := srv.Counts(); reads != n {
		t.Fatalf("server served %d reads before its burst write, want %d", reads, n)
	}

	drained := make(chan bool, 1)
	go func() { drained <- srv.Drain(5 * time.Second) }()
	for started := false; !started; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		started = srv.closed
		srv.mu.Unlock()
	}
	armed.Store(false)
	close(gate)
	if !<-drained {
		t.Fatal("Drain timed out with replies staged")
	}
	for i := 0; i < n; i++ {
		resp := sess.recv()
		segs, err := rdma.DecodeDataSegsInto(resp.Payload, nil, false)
		if resp.Tag != tags[i] || err != nil || len(segs) != 1 || !bytes.Equal(segs[0].Data, []byte{byte(i), 0xD7}) {
			t.Errorf("reply %d: %s/%d (%v), want read %d's data", i, resp.Op, resp.Tag, err, i)
		}
	}
}

// Run-to-completion serving: the read loop answers fault-sized batches
// itself and writes a read burst's replies together.

// burstServer returns a server whose one connection is counted on the
// server's side (under outer, when given), and how to dial it raw.
func burstServer(tcp bool, outer func(io.ReadWriteCloser) io.ReadWriteCloser) (*Server, func(testing.TB) (*rawSession, *countConn)) {
	srv := NewServer()
	sconns := make(chan *countConn, 1) // one connection is served
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		if outer != nil {
			c = outer(c)
		}
		cc := newCountConn(c)
		sconns <- cc
		return cc
	}
	return srv, func(tb testing.TB) (*rawSession, *countConn) {
		tb.Helper()
		dial := dialRaw
		if tcp {
			dial = dialRawTCP
		}
		sess := dial(tb, srv, rdma.OptCompress)
		sess.conn.SetDeadline(time.Now().Add(10 * time.Second)) // a lost reply fails the test instead of hanging it
		return sess, <-sconns
	}
}

func overPipeAndTCP(t *testing.T, run func(t *testing.T, tcp bool)) {
	t.Run("pipe", func(t *testing.T) { testutil.NoGoroutineLeaks(t); run(t, false) })
	t.Run("tcp", func(t *testing.T) { testutil.NoGoroutineLeaks(t); run(t, true) })
}

func oneWrite(tb testing.TB, idx uint32, img []byte) rdma.Frame {
	tb.Helper()
	f, err := rdma.EncodeWriteBatchCPooled(0, []rdma.WriteReqC{fullTuple(1, idx, 0, img, rdma.SchemeWords)}, false)
	if err != nil {
		tb.Fatal(err)
	}
	return f
}

func readsOf(ds uint32, from, n int, size uint32) rdma.Frame {
	reqs := make([]rdma.ReadReq, n)
	for i := range reqs {
		reqs[i] = rdma.ReadReq{DS: ds, Idx: uint32(from + i), Size: size}
	}
	return rdma.EncodeReadBatchCPooled(0, reqs)
}

// TestBurstFaultDoorbellGetsOneWrite: the doorbell a fault with a dirty
// eviction rings — the victim's WRITEBATCH-C and the missed object's
// READBATCH-C in one client write — is answered with both replies in one
// server Write, ack first.
func TestBurstFaultDoorbellGetsOneWrite(t *testing.T) {
	overPipeAndTCP(t, func(t *testing.T, tcp bool) {
		_, dial := burstServer(tcp, nil)
		sess, sconn := dial(t)
		img := sparseInt64(4096, rand.New(rand.NewSource(3)))
		const rounds = 8
		for i := 0; i < rounds; i++ {
			before := sconn.writes.Load()
			wire, tags := sess.burst(oneWrite(t, uint32(i+1), img), readsOf(1, i, 1, 4096))
			if _, err := sess.conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			ack, data := sess.recv(), sess.recv()
			if ack.Op != rdma.OpAckBatchC || ack.Tag != tags[0] || data.Op != rdma.OpDataBatchC || data.Tag != tags[1] {
				t.Fatalf("round %d: replies %s/%d then %s/%d, want the ack then the data", i, ack.Op, ack.Tag, data.Op, data.Tag)
			}
			if n := sconn.writes.Load() - before; n != 1 {
				t.Fatalf("round %d: server issued %d Writes for one doorbell, want 1", i, n)
			}
		}
	})
}

// TestBurstHalfArrivedFrameFlushesFirst: a client write that ends
// mid-frame — A whole, then the first half of B — gets A's reply before
// the rest of B exists. The read loop must not sit in a read for B's tail
// with A's reply staged: this client does not send the tail until it has
// A's reply in hand.
func TestBurstHalfArrivedFrameFlushesFirst(t *testing.T) {
	overPipeAndTCP(t, func(t *testing.T, tcp bool) {
		srv, dial := burstServer(tcp, nil)
		srv.Store.Write(1, 0, bytes.Repeat([]byte{0xA1}, 512))
		sess, sconn := dial(t)
		a, atag := sess.burst(readsOf(1, 0, 1, 512))
		b, btag := sess.burst(oneWrite(t, 7, sparseInt64(4096, rand.New(rand.NewSource(4)))))
		before := sconn.writes.Load()
		if _, err := sess.conn.Write(append(a, b[:len(b)/2]...)); err != nil {
			t.Fatal(err)
		}
		if resp := sess.recv(); resp.Op != rdma.OpDataBatchC || resp.Tag != atag[0] {
			t.Fatalf("first reply is %s/%d, want A's data", resp.Op, resp.Tag)
		}
		if _, err := sess.conn.Write(b[len(b)/2:]); err != nil {
			t.Fatal(err)
		}
		if resp := sess.recv(); resp.Op != rdma.OpAckBatchC || resp.Tag != btag[0] {
			t.Fatalf("second reply is %s/%d, want B's ack", resp.Op, resp.Tag)
		}
		if n := sconn.writes.Load() - before; n != 2 {
			t.Errorf("server issued %d Writes, want one per reply here", n)
		}
	})
}

// TestBurstMixesPoolAndInline: one burst carrying a 64-read window (the
// pool's) and a single read (the loop's own) gets each answered exactly
// once under its own tag, whichever finishes first.
func TestBurstMixesPoolAndInline(t *testing.T) {
	overPipeAndTCP(t, func(t *testing.T, tcp bool) {
		srv, dial := burstServer(tcp, nil)
		for i := 0; i < 65; i++ {
			srv.Store.Write(3, uint32(i), bytes.Repeat([]byte{byte(i)}, 64))
		}
		sess, _ := dial(t)
		for round := 0; round < 16; round++ {
			wire, tags := sess.burst(readsOf(3, 0, 64, 64), readsOf(3, 64, 1, 64))
			if _, err := sess.conn.Write(wire); err != nil {
				t.Fatal(err)
			}
			want := map[uint32]int{tags[0]: 64, tags[1]: 1}
			for range tags {
				resp := sess.recv()
				segs, err := rdma.DecodeDataSegsInto(resp.Payload, nil, false)
				if n, ok := want[resp.Tag]; !ok || resp.Op != rdma.OpDataBatchC || err != nil || len(segs) != n {
					t.Fatalf("round %d: reply %s/%d with %d segments (%v), outstanding %v", round, resp.Op, resp.Tag, len(segs), err, want)
				}
				delete(want, resp.Tag)
			}
		}
		// Nothing was answered twice: the next reply on the stream is the
		// next request's.
		if objs, _ := sess.read(false, rdma.ReadReq{DS: 3, Idx: 64, Size: 64}); objs[0][0] != 64 {
			t.Fatalf("read after the bursts returned %x", objs[0][:4])
		}
		if reads, _ := srv.Counts(); reads != 16*65+1 {
			t.Errorf("server counted %d reads, want %d", reads, 16*65+1)
		}
	})
}

// cutConn fails every Write while armed, closing the connection: the
// link dies between a request being served and its reply being written.
type cutConn struct {
	io.ReadWriteCloser
	armed *atomic.Bool
}

func (c cutConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		c.Close()
		return 0, io.ErrClosedPipe
	}
	return c.ReadWriteCloser.Write(p)
}

// TestBurstCutBeforeFlushSettlesInflight: a request the read loop served
// stays in flight until its burst is written; when that write dies with
// the connection the gauge is settled all the same, so Drain finds
// nothing to wait for.
func TestBurstCutBeforeFlushSettlesInflight(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	var armed atomic.Bool
	srv, dial := burstServer(true, func(c io.ReadWriteCloser) io.ReadWriteCloser {
		return cutConn{ReadWriteCloser: c, armed: &armed}
	})
	sess, sconn := dial(t)
	armed.Store(true)
	wire, _ := sess.burst(readsOf(1, 0, 1, 64), readsOf(1, 1, 2, 64))
	if _, err := sess.conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	if _, err := rdma.ReadFrameOpts(sess.conn, true, false); err == nil {
		t.Fatal("a reply crossed a connection cut before its flush")
	}
	if reads, _ := srv.Counts(); reads != 3 || sconn.writes.Load() != 2 { // the hello's reply, then the burst's one attempt
		t.Errorf("server counted %d reads and %d Writes, want both requests served and one burst write", reads, sconn.writes.Load())
	}
	start := time.Now()
	if !srv.Drain(5*time.Second) || time.Since(start) > time.Second {
		t.Errorf("Drain took %v with nothing in flight", time.Since(start))
	}
	if n := srv.metrics.inflight.Load(); n != 0 {
		t.Errorf("%s = %d after the cut, want 0", MetricInflight, n)
	}
}

// TestBurstParkedWriteParksOnlyItsConnection: a peer that stops reading
// parks its connection's burst write, and that connection with it; another
// connection on the same server is served as usual. Drain then times out
// over the parked replies, force-closes the connection and settles the
// gauge: nothing else is lost and no goroutine is left behind.
func TestBurstParkedWriteParksOnlyItsConnection(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	var armed atomic.Bool
	blocked := make(chan struct{}, 1)
	var accepted atomic.Int32
	srv := NewServer()
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		if accepted.Add(1) == 1 { // A: parked once armed; B: a plain socket
			return newGateConn(c, &armed, blocked, nil)
		}
		return c
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *rawSession {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		return helloRaw(t, conn, 0)
	}
	srv.Store.Write(1, 0, []byte{0xD7})

	a := dial()
	armed.Store(true)
	const parked = 3
	wire, _ := a.burst(readsOf(1, 0, 1, 1), readsOf(1, 0, 1, 1), readsOf(1, 0, 1, 1))
	if _, err := a.conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	<-blocked // A's burst write is parked

	b := dial()
	for i := 0; i < 16; i++ {
		img := []byte{byte(i), 0xB0}
		if _, err := b.write(false, fullTuple(2, uint32(i), 0, img, rdma.SchemeRaw)); err != nil {
			t.Fatal(err)
		}
		if objs, _ := b.read(false, rdma.ReadReq{DS: 2, Idx: uint32(i), Size: 2}); !bytes.Equal(objs[0], img) {
			t.Fatalf("B read %d returned %x behind A's parked write", i, objs[0])
		}
	}
	// The server settles the gauge only after its Write of a reply
	// returns, so B's last reply can reach B while B's request still
	// counts: wait for it to leave the gauge.
	for deadline := time.Now().Add(time.Second); srv.metrics.inflight.Load() != parked && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := srv.metrics.inflight.Load(); got != parked {
		t.Errorf("%s = %d with A's replies parked, want %d", MetricInflight, got, parked)
	}

	if srv.Drain(50 * time.Millisecond) {
		t.Error("Drain reported drained with A's replies parked")
	}
	if got := srv.metrics.inflight.Load(); got != 0 {
		t.Errorf("%s = %d after the drain, want 0", MetricInflight, got)
	}
	if _, err := rdma.ReadFrameOpts(a.conn, true, false); err == nil {
		t.Error("a parked reply reached A after its connection was force-closed")
	}
	for i := 0; i < 16; i++ {
		if got := srv.Store.Read(2, uint32(i), 2); !bytes.Equal(got, []byte{byte(i), 0xB0}) {
			t.Errorf("B's write %d reads back %x after the drain", i, got)
		}
	}
}

// TestBurstStagesAtMostStagedMax: a burst of small requests for large
// objects — one client Write of 8-tuple reads whose replies add up to
// several times stagedMax — is written out as it is served, not staged
// whole, and every reply still arrives once and in order.
func TestBurstStagesAtMostStagedMax(t *testing.T) {
	overPipeAndTCP(t, func(t *testing.T, tcp bool) {
		srv, dial := burstServer(tcp, nil)
		rng := rand.New(rand.NewSource(5))
		objs := make([][]byte, inlineMaxTuples)
		for i := range objs {
			objs[i] = make([]byte, 4096)
			rng.Read(objs[i]) // incompressible: each reply carries 32 KiB
			srv.Store.Write(1, uint32(i), objs[i])
		}
		sess, sconn := dial(t)
		const frames = 16 // 512 KiB of replies, 4x stagedMax
		reqs := make([]rdma.Frame, frames)
		for i := range reqs {
			reqs[i] = readsOf(1, 0, inlineMaxTuples, 4096)
		}
		wire, tags := sess.burst(reqs...)
		before := sconn.writes.Load()
		if _, err := sess.conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		for i, tag := range tags {
			resp := sess.recv()
			segs, err := rdma.DecodeDataSegsInto(resp.Payload, nil, false)
			if resp.Op != rdma.OpDataBatchC || resp.Tag != tag || err != nil || len(segs) != inlineMaxTuples {
				t.Fatalf("reply %d: %s/%d with %d segments (%v), want tag %d", i, resp.Op, resp.Tag, len(segs), err, tag)
			}
			for j, sg := range segs {
				if !bytes.Equal(sg.Data, objs[j]) {
					t.Fatalf("reply %d segment %d holds the wrong bytes", i, j)
				}
			}
			rdma.PutBuf(resp.Payload)
		}
		if n := sconn.writes.Load() - before; n < 2 {
			t.Errorf("server wrote %d KiB of replies in %d Write(s), want them flushed every %d KiB", frames*32, n, stagedMax>>10)
		}
	})
}
