package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/faultnet"
	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// TestPipelinedSurvivesCorruption: every frame past the hello carries
// a CRC and the hello checks itself, so byte flips on the link — in the
// handshake included — surface as transport errors (replayed on a fresh
// conn) instead of desynchronizing the stream into a definitive, and
// fatal, server rejection.
func TestPipelinedSurvivesCorruption(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Store.Write(1, 7, []byte{0xAB, 0xCD, 0xEF, 0x01})

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:        13,
		CorruptProb: 0.05, // one flipped byte per ~20 forwarded chunks
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	c, err := DialPipelined(proxy.Addr(), PipelineOpts{
		// A short deadline bounds the wedged-stream case: a corrupted
		// length field can leave the server blocked mid-frame.
		Timeout:   300 * time.Millisecond,
		RetryMax:  50,
		RetryBase: time.Millisecond,
		RetryCap:  5 * time.Millisecond,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dst := make([]byte, 4)
	for i := 0; i < 300; i++ {
		if err := c.ReadObj(1, 7, dst); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if dst[0] != 0xAB || dst[3] != 0x01 {
			t.Fatalf("read %d returned corrupt data %x", i, dst)
		}
	}
	if proxy.Corruptions() == 0 {
		t.Fatal("proxy never corrupted a chunk; test exercised nothing")
	}
}

// TestPipelinedReconnectReplaysReads drives the pipelined client
// through a chaos proxy that keeps cutting the stream: every read must
// still complete with correct data, transparently replayed across
// reconnects.
func TestPipelinedReconnectReplaysReads(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const objs = 64
	for i := 0; i < objs; i++ {
		srv.Store.Write(1, uint32(i), []byte{byte(i), byte(i ^ 0xFF), byte(i * 3), 0x5A})
	}

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:          23,
		CutEveryBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc, err := DialPipelined(proxy.Addr(), PipelineOpts{
		Timeout:   2 * time.Second,
		RetryMax:  50,
		RetryBase: time.Millisecond,
		RetryCap:  5 * time.Millisecond,
		Seed:      5,
		Window:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	dst := make([]byte, 4)
	for round := 0; round < 20; round++ {
		for i := 0; i < objs; i++ {
			if err := sc.ReadObj(1, i, dst); err != nil {
				t.Fatalf("round %d read %d: %v", round, i, err)
			}
			if dst[0] != byte(i) || dst[3] != 0x5A {
				t.Fatalf("round %d read %d returned corrupt data %x", round, i, dst)
			}
		}
	}
	if proxy.Cuts() == 0 {
		t.Fatal("proxy never cut the stream; test exercised nothing")
	}
}

// TestNegativeRetryMaxNeverRedials: RetryMax < 0 means no redial after
// a fault. A read whose reply is lost to a cut fails, with an error that
// wraps the cut, instead of being replayed on a fresh connection; the
// client is down, and the next read buys one redial as on any down
// client.
func TestNegativeRetryMaxNeverRedials(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	var armed atomic.Bool
	var accepted atomic.Int32
	srv := NewServer()
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		if accepted.Add(1) == 1 {
			return cutConn{ReadWriteCloser: c, armed: &armed}
		}
		return c
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Store.Write(1, 0, []byte{0x42})
	reg := obs.NewRegistry()
	c, err := DialPipelined(addr, PipelineOpts{Timeout: time.Second, RetryMax: -1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	armed.Store(true) // the read is served, its reply dies with the connection
	dst := make([]byte, 1)
	err = c.ReadObj(1, 0, dst)
	if err == nil {
		t.Fatal("the read across the cut succeeded: it was replayed on a redialed connection")
	}
	if errors.Unwrap(err) == nil {
		t.Errorf("read failed with %q, which wraps no cause", err)
	}
	if n := reg.Snapshot().Counter(MetricClientReconnects); n != 0 || accepted.Load() != 1 {
		t.Fatalf("%s = %d after %d connections, want no redial", MetricClientReconnects, n, accepted.Load())
	}

	if err := c.ReadObj(1, 0, dst); err != nil || dst[0] != 0x42 {
		t.Fatalf("read on the down client = %x, %v; want its one redial to serve it", dst, err)
	}
	if n := reg.Snapshot().Counter(MetricClientReconnects); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricClientReconnects, n)
	}
}

// TestPipelinedWriteUncertainOnCut: pipelined writes racing a cut must
// either succeed or surface ErrUncertainWrite — never a silent replay,
// never a hang.
func TestPipelinedWriteUncertainOnCut(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	proxy, err := faultnet.NewProxy("127.0.0.1:0", addr, faultnet.Config{
		Seed:          31,
		CutEveryBytes: 2048,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	sc, err := DialPipelined(proxy.Addr(), PipelineOpts{
		Timeout:   2 * time.Second,
		RetryMax:  50,
		RetryBase: time.Millisecond,
		RetryCap:  5 * time.Millisecond,
		Window:    8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	buf := []byte{9, 8, 7, 6}
	var uncertains, acked int
	for i := 0; i < 300; i++ {
		err := sc.WriteObj(3, i%16, buf)
		switch {
		case err == nil:
			acked++
		case errors.Is(err, ErrUncertainWrite):
			uncertains++
		default:
			t.Fatalf("write %d: unexpected error %v", i, err)
		}
	}
	if acked == 0 {
		t.Fatal("no write ever succeeded through the chaos proxy")
	}
	if proxy.Cuts() > 0 && uncertains == 0 {
		t.Logf("note: %d cuts but no uncertain writes (cuts landed between writes)", proxy.Cuts())
	}
}

// TestPipelinedCloseDoorbellRace is the -race regression for Close
// racing the flusher's doorbell write and the reader: hammer reads from
// several goroutines, Close mid-flight, and require every op to
// complete (no hang, no panic, no leaked reader).
func TestPipelinedCloseDoorbellRace(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		srv := NewServer()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialPipelined(addr, PipelineOpts{Window: 8})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				dst := make([]byte, 8)
				for i := 0; ; i++ {
					if err := c.ReadObj(g, i%32, dst); err != nil {
						if !errors.Is(err, ErrClientClosed) {
							panic(fmt.Sprintf("iter %d: read failed with %v, want ErrClientClosed", iter, err))
						}
						return
					}
				}
			}(g)
		}
		time.Sleep(time.Duration(iter%5) * time.Millisecond)
		if err := c.Close(); err != nil {
			t.Fatalf("iter %d: close: %v", iter, err)
		}
		wg.Wait() // every hammer goroutine observed ErrClientClosed
		srv.Close()
	}
}

// TestPipelinedCloseDuringReconnect: Close while the client is inside
// its redial backoff must abort the reconnect promptly and complete
// everything outstanding with ErrClientClosed.
func TestPipelinedCloseDuringReconnect(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialPipelined(addr, PipelineOpts{
		Timeout:   time.Second,
		RetryMax:  1000,
		RetryBase: 50 * time.Millisecond,
		RetryCap:  50 * time.Millisecond,
		Redial: func() (io.ReadWriteCloser, error) {
			return nil, errors.New("server is gone")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain(10 * time.Millisecond) // kill the server: the client enters its redial loop

	errc := make(chan error, 1)
	go func() {
		dst := make([]byte, 8)
		errc <- c.ReadObj(0, 0, dst)
	}()
	time.Sleep(20 * time.Millisecond) // let the read hit the dead conn
	done := make(chan struct{})
	go func() {
		c.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung while a reconnect was in progress")
	}
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, ErrClientClosed) {
			t.Fatalf("read completed with %v, want nil or ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight read never completed after Close")
	}
}

// TestServerDrain: a drain with nothing in flight reports success and
// leaves the listener closed.
func TestServerDrain(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialPipelined(addr, PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if !srv.Drain(time.Second) {
		t.Fatal("drain with an idle connection should succeed")
	}
	// The connection was force-closed by the drain; the client notices.
	if err := c.Ping(); err == nil {
		t.Fatal("ping after drain should fail")
	}
	c.Close()
	if _, err := DialPipelined(addr, PipelineOpts{}); err == nil {
		t.Fatal("dial after drain should fail (listener closed)")
	}
}

// TestCRCSessionEndToEnd: the real client and server switch to
// checksummed framing right after the hello and keep working — this
// pins the switch on both sides.
func TestCRCSessionEndToEnd(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialPipelined(addr, PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := c.WriteObj(5, 9, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := c.ReadObj(5, 9, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CRC session read back %x, want %x", got, want)
		}
	}
}

// TestPipelinedWriteOnlyStall is the stall-detector regression for the
// write window: a server that says hello and then goes mute leaves a WRITEBATCH unacknowledged with nothing in the
// *read* window. The stall detector must count in-flight writes too,
// cut the stream after Timeout, and complete the write with
// ErrUncertainWrite — not wait forever for an ack that will never come.
func TestPipelinedWriteOnlyStall(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Say hello so the session comes up, then swallow every
				// frame without replying.
				if _, err := stubHello(conn); err == nil {
					io.Copy(io.Discard, conn)
				}
			}(conn)
		}
	}()

	c, err := DialPipelined(ln.Addr().String(), PipelineOpts{
		Timeout:   50 * time.Millisecond,
		RetryMax:  2,
		RetryBase: time.Millisecond,
		RetryCap:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	start := time.Now()
	err = c.WriteObj(1, 2, []byte("stalled write"))
	if err == nil {
		t.Fatal("write against a mute server must not succeed")
	}
	if !errors.Is(err, ErrUncertainWrite) {
		t.Fatalf("err = %v, want ErrUncertainWrite", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("write unblocked only after %v: stall detector ignored the write window", d)
	}
}

// faultyConn fails — and closes — on every failEvery-th Write and
// every failEvery-th Read, each counted across all the connections of
// one test, maxFails times per direction. A failed Write is the flusher
// finding the fault itself; a failed Read is the reader finding it
// while the flusher may be mid-encode.
type faultyConn struct {
	net.Conn
	writes, reads, wfails, rfails *atomic.Int64
	failEvery, maxFails           int64
}

func (c faultyConn) Write(p []byte) (int, error) {
	if c.writes.Add(1)%c.failEvery == 0 && c.wfails.Add(1) <= c.maxFails {
		c.Conn.Close()
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

func (c faultyConn) Read(p []byte) (int, error) {
	if c.reads.Add(1)%c.failEvery == 0 && c.rfails.Add(1) <= c.maxFails {
		c.Conn.Close()
		return 0, errors.New("injected read failure")
	}
	return c.Conn.Read(p)
}

// TestRegisterThenEncodeWindowIsSafe: the flusher registers a batch
// under its tag first and gathers, compresses and bit-packs it outside
// the client lock afterwards, so a connection fault can now harvest an
// op whose frame does not exist yet. Here the doorbell Write fails,
// repeatedly, and so does the reader's Read, while concurrent
// goroutines issue reads, full writes and range writes and scribble
// over their write buffers the moment each completion hands them back
// (under -race, an encoder still reading one would be caught). Every op must complete exactly once —
// reads replayed to the right bytes, harvested writes as
// ErrUncertainWrite, each reported to exactly one caller — no pooled
// gather/compress buffer may come back twice, and nothing may leak.
func TestRegisterThenEncodeWindowIsSafe(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	const (
		objSize   = 1024
		perKind   = 4 // goroutines each of readers, writers, range writers
		rounds    = 40
		failEvery = 7
		maxFails  = 12
	)
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	image := func(ds, idx, version int) []byte {
		b := compressible(objSize)
		for off := 0; off < objSize; off += 128 {
			b[off], b[off+1], b[off+2] = byte(ds), byte(idx), byte(version)
		}
		return b
	}
	for idx := 0; idx < perKind; idx++ {
		srv.Store.Write(1, uint32(idx), image(1, idx, 0))
	}

	var writes, reads, wfails, rfails atomic.Int64
	dial := func() (io.ReadWriteCloser, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return faultyConn{Conn: conn, writes: &writes, reads: &reads, wfails: &wfails, rfails: &rfails,
			failEvery: failEvery, maxFails: maxFails}, nil
	}
	conn, _ := dial()
	reg := obs.NewRegistry()
	cl, err := NewPipelined(conn, PipelineOpts{
		Window: 8, MaxBatch: 4, Obs: reg, Redial: dial,
		RetryMax: 50, RetryBase: time.Millisecond, RetryCap: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var issued, completed, doubled, uncertain atomic.Int64
	// run issues one op and waits for its completion, counting both and
	// any completion beyond the first.
	run := func(issue func(done func(error))) error {
		var calls atomic.Int32
		ch := make(chan error, 4)
		issued.Add(1)
		issue(func(err error) {
			if calls.Add(1) > 1 {
				doubled.Add(1)
			} else {
				completed.Add(1)
			}
			ch <- err
		})
		return <-ch
	}
	var wg sync.WaitGroup
	worker := func(body func(g, round int) error) {
		for g := 0; g < perKind; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 1; round <= rounds; round++ {
					if err := body(g, round); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
	}
	// write reissues until acknowledged: an uncertain completion returns
	// the buffer, unchanged, for another go.
	write := func(issue func(done func(error))) error {
		for {
			switch err := run(issue); {
			case err == nil:
				return nil
			case errors.Is(err, ErrUncertainWrite):
				uncertain.Add(1)
			default:
				return err
			}
		}
	}
	worker(func(g, round int) error { // readers
		dst := make([]byte, objSize)
		if err := run(func(done func(error)) { cl.IssueRead(1, g, dst, done) }); err != nil {
			return fmt.Errorf("read ds1[%d]: %w (reads must be replayed, not failed)", g, err)
		}
		if !bytes.Equal(dst, image(1, g, 0)) {
			return fmt.Errorf("read ds1[%d] returned the wrong bytes", g)
		}
		return nil
	})
	fullBufs, rangeBufs := make([][]byte, perKind), make([][]byte, perKind)
	exts := []rdma.Extent{{Off: 0, Len: 3}, {Off: 512, Len: 3}}
	for g := range fullBufs {
		fullBufs[g], rangeBufs[g] = make([]byte, objSize), image(3, g, 0)
		srv.Store.Write(3, uint32(g), rangeBufs[g])
	}
	worker(func(g, round int) error { // full writers
		for off, b := range image(2, g, round) { // scribbles on the buffer the last op used
			fullBufs[g][off] = b
		}
		return write(func(done func(error)) { cl.IssueWrite(2, g, fullBufs[g], done) })
	})
	worker(func(g, round int) error { // range writers
		rangeBufs[g][2], rangeBufs[g][514] = byte(round), byte(round)
		return write(func(done func(error)) { cl.IssueWriteRanges(3, g, rangeBufs[g], exts, done) })
	})
	wg.Wait()

	// The window itself, held open: one write big enough that its LZ pass
	// outlasts everything else here, and the connection closed under the
	// reader as soon as the flusher has registered it. The harvest must
	// wait for the encoder before the completion hands the buffer back to
	// be scribbled on.
	big := bytes.Repeat(compressible(objSize), 4096)
	// What a caller reusing its buffer does. (Plain stores: the race
	// detector does not check a bulk clear or copy of this size against
	// concurrent reads.)
	scribble := func() {
		for i := 0; i < len(big); i += 512 {
			big[i]++
		}
	}
	registered := func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return cl.inflightW > 0
	}
	// A loaded host can deschedule the spinning goroutine for the whole
	// round trip: an op that completes before it was seen registered ends
	// the spin (that round then does not exercise the window).
	var landed atomic.Bool
	cut := false
	err = write(func(done func(error)) {
		cl.IssueWrite(4, 0, big, func(err error) { scribble(); landed.Store(true); done(err) })
		for ; !cut && !landed.Load(); runtime.Gosched() {
			if cut = registered(); cut {
				cl.mu.Lock()
				conn := cl.conn
				cl.mu.Unlock()
				conn.Close()
			}
		}
	})
	if err != nil {
		t.Errorf("write across a harvest mid-encode: %v", err)
	}
	// Close mid-encode takes the same care before it fails the op.
	landed.Store(false)
	err = run(func(done func(error)) {
		cl.IssueWrite(4, 1, big, func(err error) { scribble(); landed.Store(true); done(err) })
		for !registered() && !landed.Load() {
			runtime.Gosched()
		}
		cl.Close()
	})
	if err != nil && !errors.Is(err, ErrClientClosed) {
		t.Errorf("write across a Close mid-encode: %v", err)
	}
	cl.Close()
	srv.Close()

	if i, c, d := issued.Load(), completed.Load(), doubled.Load(); c != i || d != 0 {
		t.Fatalf("%d ops issued, %d completed, %d completed twice", i, c, d)
	}
	for g := 0; g < perKind; g++ {
		if !bytes.Equal(srv.Store.Read(2, uint32(g), objSize), image(2, g, rounds)) {
			t.Errorf("ds2[%d]: the last acknowledged full write is not what the server stores", g)
		}
		want := image(3, g, 0)
		want[2], want[514] = rounds, rounds
		if !bytes.Equal(srv.Store.Read(3, uint32(g), objSize), want) {
			t.Errorf("ds3[%d]: the last acknowledged range write is not what the server stores", g)
		}
	}
	snap := reg.Snapshot()
	if wfails.Load() < maxFails || rfails.Load() < maxFails || snap.Counters[MetricClientReconnects] == 0 {
		t.Fatalf("%d write and %d read failures injected of %d each, %d reconnects: the fault path was not exercised",
			wfails.Load(), rfails.Load(), maxFails, snap.Counters[MetricClientReconnects])
	}
	harvested := snap.Counters[MetricClientUncertainWrites] + snap.Counters[MetricClientReplayedReads]
	if harvested == 0 {
		t.Fatal("a failed doorbell write always strands the batch it carried, yet nothing was harvested")
	}
	if got, want := uint64(uncertain.Load()), snap.Counters[MetricClientUncertainWrites]; got != want {
		t.Fatalf("callers saw %d uncertain writes, the client harvested %d: each must reach exactly one caller", got, want)
	}
	// A buffer put back twice sits in its free list twice: draining more
	// than a list holds would hand the same backing array out again.
	seen := make(map[*byte]bool)
	for size := 64; size <= 4*objSize; size *= 2 {
		var held [][]byte
		for i := 0; i < 200; i++ {
			b := rdma.GetBuf(size)
			if seen[&b[0]] {
				t.Fatalf("the %d-byte class hands out one buffer twice: it was returned to the pool twice", size)
			}
			seen[&b[0]] = true
			held = append(held, b)
		}
		for _, b := range held {
			rdma.PutBuf(b)
		}
	}
	testutil.CheckGoroutines(t, goroutines)
}

// TestForgedWordsReplyIsRefusedOnTheReader: a words segment behind a
// valid checksum that fails rdma.CheckWords is refused on the reader even
// when the read asked for the wire form (IssueReadWire), which never
// decodes there: the stream is abandoned and the read replays on a fresh
// connection, which here serves the object intact.
func TestForgedWordsReplyIsRefusedOnTheReader(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	img := make([]byte, 64)
	img[8] = 7 // word 1 of the only group: eligible for SchemeWords
	var accepted atomic.Int32
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		if accepted.Add(1) == 2 {
			srv.Store.Write(1, 0, img) // the replay finds the object intact
		}
		return c
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Stored as a client's block would be, past admission: the bitmap
	// names two present words, the stream holds one.
	srv.Store.mu.Lock()
	srv.Store.m[[2]uint32{1, 0}] = image{scheme: rdma.SchemeWords, rawLen: 64, data: []byte{0, 8, 0b11, 7}}
	srv.Store.mu.Unlock()
	c, err := DialPipelined(addr, PipelineOpts{Timeout: 2 * time.Second, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dst, got := make([]byte, 64), make([]byte, 64)
	var blk rdma.Block
	done := make(chan error, 1)
	c.IssueReadWire(1, 0, dst, &blk, func(err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if blk.Scheme != rdma.SchemeWords || !rdma.CheckWords(dst[:blk.Len], len(dst)) {
		t.Fatalf("delivered %+v: want a checked words block", blk)
	}
	rdma.UnpackBlock(blk.Scheme, got, dst[:blk.Len])
	if !bytes.Equal(got, img) || accepted.Load() != 2 {
		t.Fatalf("read %x over %d connections, want %x over 2: the forged block was not refused and replayed", got, accepted.Load(), img)
	}
}
