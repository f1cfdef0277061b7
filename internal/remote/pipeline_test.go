package remote

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"cards/internal/obs"
	"cards/internal/rdma"
)

func startPipelined(t *testing.T, opts PipelineOpts) (*Server, *PipelinedClient) {
	t.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := DialPipelined(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestPipelinedReadWrite(t *testing.T) {
	srv, cl := startPipelined(t, PipelineOpts{})
	data := []byte("pipelined far memory")
	if err := cl.WriteObj(3, 7, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := cl.ReadObj(3, 7, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("roundtrip = %q", buf)
	}
	// Absent object reads as zeros.
	zeros := make([]byte, 8)
	if err := cl.ReadObj(9, 9, zeros); err != nil {
		t.Fatal(err)
	}
	for _, b := range zeros {
		if b != 0 {
			t.Fatal("absent object should read zero")
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if srv.Store.Len() != 1 {
		t.Fatalf("store len = %d", srv.Store.Len())
	}
}

func TestPipelinedOverPipe(t *testing.T) {
	srv := NewServer()
	c1, c2 := net.Pipe()
	go srv.ServeConn(c1)
	cl, err := NewPipelined(c2, PipelineOpts{Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteObj(1, 1, []byte{42}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if err := cl.ReadObj(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatalf("readback = %d", buf[0])
	}
}

func TestPipelinedManyAsyncReads(t *testing.T) {
	srv, cl := startPipelined(t, PipelineOpts{Window: 16, MaxBatch: 4})
	const n = 200
	for i := 0; i < n; i++ {
		srv.Store.Write(1, uint32(i), []byte{byte(i), byte(i >> 8)})
	}
	dsts := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		dsts[i] = make([]byte, 2)
		cl.IssueRead(1, i, dsts[i], func(err error) {
			errs[i] = err
			wg.Done()
		})
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("read %d: %v", i, errs[i])
		}
		if dsts[i][0] != byte(i) || dsts[i][1] != byte(i>>8) {
			t.Fatalf("read %d = %v", i, dsts[i])
		}
	}
}

func TestPipelinedMixedReadWrite(t *testing.T) {
	_, cl := startPipelined(t, PipelineOpts{Window: 8, MaxBatch: 3})
	// Interleave writes and reads so the flusher alternates WRITEBATCH
	// frames with READBATCH runs; read-your-write holds because WriteObj
	// blocks until the ack.
	for i := 0; i < 50; i++ {
		data := []byte{byte(i), 0xAB}
		if err := cl.WriteObj(2, i, data); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2)
		if err := cl.ReadObj(2, i, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, data) {
			t.Fatalf("readback %d = %v", i, buf)
		}
	}
}

// TestPipelinedOutOfOrderCompletions hand-crafts a server that answers
// two read batches in reverse order: the tag demux must
// route each completion to the right caller.
func TestPipelinedOutOfOrderCompletions(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			if _, err := stubHello(c1); err != nil {
				return err
			}
			// Collect two single-read batches, then answer in REVERSE.
			var frames []rdma.Frame
			for len(frames) < 2 {
				f, err := rdma.ReadFrameOpts(c1, true, false)
				if err != nil {
					return err
				}
				frames = append(frames, f)
			}
			for i := len(frames) - 1; i >= 0; i-- {
				resp, err := stubDataReply(frames[i], func(r rdma.ReadReq) []byte { return []byte{byte(r.Idx)} })
				if err != nil {
					return err
				}
				if err := rdma.WriteFrameCRC(c1, resp); err != nil {
					return err
				}
			}
			return nil
		}()
	}()

	// MaxBatch 1 forces each read into its own batch frame.
	cl, err := NewPipelined(c2, PipelineOpts{Window: 2, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wg sync.WaitGroup
	dsts := [2][]byte{make([]byte, 1), make([]byte, 1)}
	errs := [2]error{}
	wg.Add(2)
	for i := 0; i < 2; i++ {
		i := i
		cl.IssueRead(0, 10+i, dsts[i], func(err error) {
			errs[i] = err
			wg.Done()
		})
	}
	wg.Wait()
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("read %d: %v", i, errs[i])
		}
		if dsts[i][0] != byte(10+i) {
			t.Fatalf("read %d routed wrong payload %d", i, dsts[i][0])
		}
	}
}

// TestPipelinedRefusesLegacyServer: a server from before the hello
// answers opcode 3 (its PING) with an OK carrying a 4-byte feature
// word. That is not a hello record, so the dial fails — there is no
// fallback client to land on.
func TestPipelinedRefusesLegacyServer(t *testing.T) {
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
			go func() {
				defer conn.Close()
				if _, err := rdma.ReadFrame(conn); err == nil {
					rdma.WriteFrame(conn, rdma.Frame{Op: rdma.OpOK, Payload: []byte{0xFF, 0, 0, 0}})
				}
			}()
		}
	}()
	_, err = DialPipelined(ln.Addr().String(), PipelineOpts{})
	if !errors.Is(err, rdma.ErrHelloCheck) {
		t.Fatalf("dial against a pre-hello server = %v, want a failed hello self-check", err)
	}
}

// TestDialPipelinedRetriesInitialDial: with fault handling configured
// the first dial retries under the reconnect backoff budget, so a link
// that is flaky at startup is survived; without it the first failure is
// returned.
func TestDialPipelinedRetriesInitialDial(t *testing.T) {
	srv := NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if accepted.Add(1)%3 != 0 {
				conn.Close() // two of every three connections die before the hello
				continue
			}
			go srv.ServeConn(conn)
		}
	}()
	if _, err := DialPipelined(ln.Addr().String(), PipelineOpts{}); err == nil {
		t.Fatal("zero-config dial must return the first failure")
	}
	cl, err := DialPipelined(ln.Addr().String(), PipelineOpts{RetryMax: 6, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatalf("dial with a retry budget: %v", err)
	}
	defer cl.Close()
	if n := accepted.Load(); n != 3 {
		t.Fatalf("server saw %d connections, want 3 (the zero-config dial, one more slammed, one served)", n)
	}
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestCompressionModeIsChecked: PipelineOpts.Compression takes "",
// "adaptive" or "off". NewPipelined refuses anything else before its
// hello, and DialPipelined before it dials, with an error naming them.
func TestCompressionModeIsChecked(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	const named = `"" or "adaptive" (adaptive) or "off" (raw)`
	for _, mode := range []string{"Off", "none", "auto"} {
		if _, err := NewPipelined(c2, PipelineOpts{Compression: mode}); err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("NewPipelined, Compression %q: err %v, want a refusal naming the modes", mode, err)
		}
		if _, err := DialPipelined(ln.Addr().String(), PipelineOpts{Compression: mode, RetryMax: 3}); err == nil || !strings.Contains(err.Error(), named) {
			t.Fatalf("DialPipelined, Compression %q: err %v, want a refusal naming the modes", mode, err)
		}
	}
	ln.(*net.TCPListener).SetDeadline(time.Now().Add(20 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("DialPipelined dialed with a refused Compression mode")
	}
	for _, on := range []string{"", "adaptive"} {
		if ok, err := CompressionOn(on); !ok || err != nil {
			t.Fatalf("CompressionOn(%q) = %v, %v; want true, nil", on, ok, err)
		}
	}
	if ok, err := CompressionOn("off"); ok || err != nil {
		t.Fatalf(`CompressionOn("off") = %v, %v; want false, nil`, ok, err)
	}
}

// TestLegacyClientAgainstNewServer is the other direction: whatever a
// pre-hello client opens with — its 4-byte feature PING, or a data verb
// straight away — is answered with one ERR naming the server's version,
// and the connection is closed.
func TestLegacyClientAgainstNewServer(t *testing.T) {
	srv, _ := startServer(t)
	for name, first := range map[string]rdma.Frame{
		"feature ping": {Op: rdma.OpHello, Payload: []byte{0xFF, 0, 0, 0}},
		"data verb":    rdma.EncodeReadBatchCPooled(1, []rdma.ReadReq{{DS: 0, Idx: 0, Size: 8}}),
	} {
		conn, err := net.Dial("tcp", srv.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := rdma.WriteFrame(conn, first); err != nil {
			t.Fatal(err)
		}
		resp, err := rdma.ReadFrame(conn)
		if err != nil || resp.Op != rdma.OpErr {
			t.Fatalf("%s: reply = %+v, %v; want ERR", name, resp, err)
		}
		if h, err := rdma.DecodeHello(resp.Payload); err != nil || h.Version != rdma.ProtoVersion {
			t.Fatalf("%s: ERR does not lead with the server's hello record: %+v, %v", name, h, err)
		}
		t.Logf("%s: %s", name, resp.Payload[rdma.HelloSize:])
		if _, err := rdma.ReadFrame(conn); err == nil {
			t.Fatalf("%s: connection still open after the refusal", name)
		}
	}
	if r, w := srv.Counts(); r != 0 || w != 0 {
		t.Fatalf("a refused connection reached the store: reads=%d writes=%d", r, w)
	}
}

func TestPipelinedPerRequestServerError(t *testing.T) {
	_, cl := startPipelined(t, PipelineOpts{})
	// A read whose reply would exceed the frame limit is rejected by the
	// server with a tagged error — and only that request fails.
	huge := make([]byte, rdma.MaxFrame)
	if err := cl.ReadObj(0, 0, huge); err == nil {
		t.Fatal("oversized batch reply should fail")
	}
	// The client survives: later operations still work.
	if err := cl.WriteObj(0, 1, []byte{7}); err != nil {
		t.Fatalf("client broken after per-request error: %v", err)
	}
	buf := make([]byte, 1)
	if err := cl.ReadObj(0, 1, buf); err != nil || buf[0] != 7 {
		t.Fatalf("readback = %v, %v", buf, err)
	}
}

func TestPipelinedCloseUnblocksInflight(t *testing.T) {
	// A server that says hello, then goes silent: in-flight and queued
	// operations must be failed by Close, not stuck forever.
	c1, c2 := net.Pipe()
	defer c1.Close()
	go func() {
		if _, err := stubHello(c1); err == nil {
			io.Copy(io.Discard, c1) // swallow whatever arrives, never reply
		}
	}()
	cl, err := NewPipelined(c2, PipelineOpts{Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8 // more than the window: some queued, some in flight
	res := make(chan error, n)
	for i := 0; i < n; i++ {
		cl.IssueRead(0, i, make([]byte, 4), func(err error) { res <- err })
	}
	closed := make(chan struct{})
	go func() {
		cl.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close deadlocked behind a silent server")
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-res:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("completion %d = %v, want ErrClientClosed", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight op never completed after Close")
		}
	}
	// Post-close issues fail immediately.
	if err := cl.ReadObj(0, 0, make([]byte, 1)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close read = %v", err)
	}
}

func TestPipelinedMetrics(t *testing.T) {
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	cl, err := DialPipelined(addr, PipelineOpts{Window: 4, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WriteObj(0, 0, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if err := cl.ReadObj(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	read := snap.Histograms[MetricClientReadNS]
	write := snap.Histograms[MetricClientWriteNS]
	batch := snap.Histograms[MetricClientBatchSize]
	if read.Count != 1 {
		t.Errorf("read histogram = %+v", read)
	}
	if write.Count != 1 {
		t.Errorf("write histogram = %+v", write)
	}
	if batch.Count == 0 {
		t.Errorf("batch-size histogram = %+v", batch)
	}
	// Server-side batch accounting.
	ssnap := srv.ObsSnapshot()
	if c := ssnap.Histogram(MetricBatchReads).Count; c == 0 {
		t.Error("server read-batch histogram not observed")
	}
}

// TestPipelinedBrokenStreamFailsFast: without a Redial a transport
// failure is permanent — the in-flight op fails, and later calls fail
// fast instead of touching the dead stream.
func TestPipelinedBrokenStreamFailsFast(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		// Say hello, read one request, then slam the connection.
		if _, err := stubHello(c1); err == nil {
			rdma.ReadFrameOpts(c1, true, false)
		}
		c1.Close()
	}()
	cl, err := NewPipelined(c2, PipelineOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.ReadObj(0, 0, make([]byte, 8)); err == nil {
		t.Fatal("read against slammed connection should fail")
	}
	if cl.ChaseCapable() {
		t.Fatal("client without a Redial must not outlive its connection")
	}
	if err := cl.Ping(); err == nil {
		t.Fatal("ping after transport failure should fail fast")
	}
}

// TestPipeOpFitsItsSizeClass: every op is one allocation of a pipeOp;
// past 256 bytes it takes the allocator's 288-byte class, which the
// store-fanin workload's client RSS shows.
func TestPipeOpFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(pipeOp{}); n > 256 {
		t.Fatalf("pipeOp is %d bytes, want at most 256", n)
	}
}
