package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// stubHello is the server half of the handshake for hand-rolled test
// servers: read the plain-framed HELLO, echo it in an OK. Frames after
// it are CRC-framed (and carry the trace block if the hello asked).
func stubHello(conn io.ReadWriter) (rdma.Hello, error) {
	f, err := rdma.ReadFrame(conn)
	if err != nil {
		return rdma.Hello{}, err
	}
	h, err := rdma.DecodeHello(f.Payload)
	if err != nil || f.Op != rdma.OpHello {
		return h, fmt.Errorf("stub server: want HELLO first, got %s (%v)", f.Op, err)
	}
	return h, rdma.WriteFrame(conn, rdma.HelloFrame(rdma.OpOK, h))
}

// stubDataReply answers a READBATCH-C the way a hand-rolled test server
// does: decode the tuples, ask data for each object's bytes, ship them
// raw.
func stubDataReply(req rdma.Frame, data func(rdma.ReadReq) []byte) (rdma.Frame, error) {
	reqs, err := rdma.DecodeReadBatchCInto(req.Payload, nil)
	if req.Op != rdma.OpReadBatchC || err != nil {
		return rdma.Frame{}, fmt.Errorf("stub server: want READBATCH-C, got %s (%v)", req.Op, err)
	}
	var b rdma.DataBatchCBuilder
	for _, r := range reqs {
		b.Add(data(r), false)
	}
	return b.Frame(req.Tag)
}

// refusingServer accepts connections and refuses every hello the way a
// server of protocol version v would: an ERR led by its own, checksummed,
// record. It counts the connections it saw and keeps the last hello.
func refusingServer(t *testing.T, v uint16) (addr string, dials *atomic.Int32, seen *atomic.Value) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dials, seen = new(atomic.Int32), new(atomic.Value)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func() {
				defer conn.Close()
				f, err := rdma.ReadFrame(conn)
				if err != nil {
					return
				}
				if h, err := rdma.DecodeHello(f.Payload); err == nil {
					seen.Store(h)
				}
				p := rdma.Hello{Version: v}.Append(nil)
				rdma.WriteFrame(conn, rdma.Frame{Op: rdma.OpErr, Payload: append(p, fmt.Sprintf("server speaks protocol version %d", v)...)})
			}()
		}
	}()
	return ln.Addr().String(), dials, seen
}

// TestHandshakeMismatchIsDefinitive: a version mismatch is refused with
// one ERR naming both versions, and on the client side it is a typed,
// definitive error — the initial-dial retry loop and the reconnect loop
// each give up after exactly one dial instead of spending their backoff
// budget on a peer no redial can change.
func TestHandshakeMismatchIsDefinitive(t *testing.T) {
	testutil.NoGoroutineLeaks(t)

	// Server side: a hello from the future.
	srv, cl := startServer(t)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rdma.WriteFrame(conn, rdma.HelloFrame(rdma.OpHello, rdma.Hello{Version: rdma.ProtoVersion + 1}))
	resp, err := rdma.ReadFrame(conn)
	if err != nil || resp.Op != rdma.OpErr {
		t.Fatalf("reply to a version-%d hello = %+v, %v; want ERR", rdma.ProtoVersion+1, resp, err)
	}
	msg := string(resp.Payload[rdma.HelloSize:])
	for _, want := range []string{
		fmt.Sprintf("version %d", rdma.ProtoVersion), fmt.Sprintf("version %d", rdma.ProtoVersion+1),
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("refusal %q does not name %q", msg, want)
		}
	}
	if _, err := rdma.ReadFrame(conn); err == nil {
		t.Fatal("connection still open after the refusal")
	}

	// Client side: the initial dial, with a budget it must not touch.
	addr, dials, _ := refusingServer(t, rdma.ProtoVersion+1)
	_, err = DialPipelined(addr, PipelineOpts{RetryMax: 6, RetryBase: time.Millisecond, Timeout: time.Second})
	if !errors.Is(err, ErrProtoMismatch) {
		t.Fatalf("DialPipelined = %v, want ErrProtoMismatch", err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("DialPipelined dialed %d times against a mismatched server, want 1", n)
	}

	// A live client whose server is replaced by a mismatched one goes
	// down on its first redial, and each later op spends one more dial
	// on finding the same mismatch.
	cl.mu.Lock()
	cl.opts.Redial = redialer(addr, time.Second)
	cl.opts.RetryMax = 6
	cl.opts.RetryBase = time.Millisecond
	old := cl.conn
	cl.mu.Unlock()
	old.Close()
	if err := cl.ReadObj(0, 0, make([]byte, 8)); !errors.Is(err, ErrProtoMismatch) {
		t.Fatalf("read across a redial into a mismatched server = %v, want ErrProtoMismatch", err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("reconnect loop dialed %d times, want 1", n-1)
	}
	if err := cl.Ping(); !errors.Is(err, ErrProtoMismatch) {
		t.Fatalf("ping on a client down on a mismatch = %v, want ErrProtoMismatch", err)
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("the ping cost %d dials, want 1", n-2)
	}
}

// TestHandshakeRefusesTheLaneWordsVersion: protocol version 4 packed
// SchemeWords in byte lanes, version 5 in bit fields, so the two must
// never share a session: each refuses the other at the hello, and the
// client that hears the refusal — whichever version it speaks — gets
// ErrProtoMismatch.
func TestHandshakeRefusesTheLaneWordsVersion(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	const v4 = 4
	if rdma.ProtoVersion != v4+1 {
		t.Fatalf("ProtoVersion = %d, want %d", rdma.ProtoVersion, v4+1)
	}

	// A version-4 client against this server.
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = sayHello(conn, time.Second, rdma.Hello{Version: v4, Opts: rdma.OptCompress}, nil)
	if !errors.Is(err, ErrProtoMismatch) {
		t.Fatalf("a version-4 hello to a version-5 server = %v, want ErrProtoMismatch", err)
	}
	for _, want := range []string{"client speaks version 4", "server version 5"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal %q does not say %q", err, want)
		}
	}

	// This client against a version-4 server.
	addr, dials, seen := refusingServer(t, v4)
	_, err = DialPipelined(addr, PipelineOpts{RetryMax: 6, RetryBase: time.Millisecond, Timeout: time.Second})
	if !errors.Is(err, ErrProtoMismatch) {
		t.Fatalf("DialPipelined against a version-4 server = %v, want ErrProtoMismatch", err)
	}
	if h, _ := seen.Load().(rdma.Hello); h.Version != rdma.ProtoVersion || dials.Load() != 1 {
		t.Fatalf("the version-4 server saw %d dial(s), the last hello %+v; want one version-%d hello", dials.Load(), h, rdma.ProtoVersion)
	}
}

// flipProxy forwards TCP connections to backend, flipping one bit of
// stream byte 10 — inside the handshake frame's record, however the
// stream happens to be chunked — in the direction plan names for that
// connection ("c2s", "s2c", anything else forwards clean).
func flipProxy(t *testing.T, backend string, plan ...string) (addr string, conns *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conns = new(atomic.Int32)
	forward := func(dst, src net.Conn, flip bool) {
		defer dst.Close()
		const flipAt = 10 // stream offset of a byte of the hello record
		buf := make([]byte, 64<<10)
		for off := 0; ; {
			n, err := src.Read(buf)
			if n > 0 {
				if flip && off <= flipAt && flipAt < off+n {
					buf[flipAt-off] ^= 0x10
				}
				off += n
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			i := int(conns.Add(1)) - 1
			sc, err := net.Dial("tcp", backend)
			if err != nil {
				cc.Close()
				continue
			}
			mode := ""
			if i < len(plan) {
				mode = plan[i]
			}
			go forward(sc, cc, mode == "c2s")
			go forward(cc, sc, mode == "s2c")
		}
	}()
	return ln.Addr().String(), conns
}

// TestHandshakeCorruptHelloIsRetried: a hello — or its reply — with one
// flipped bit fails its own checksum, which proves nothing about the
// peer: it is retried like any transport fault, and the session that
// finally comes up has exactly the options that were asked for.
func TestHandshakeCorruptHelloIsRetried(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv := NewServer()
	backend, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, conns := flipProxy(t, backend, "c2s", "s2c")

	reg := obs.NewRegistry()
	hub := obs.NewTraceHub(obs.NewTracer(0), obs.NewFlightRecorder(0, 0), obs.SampleAll)
	cl, err := DialPipelined(addr, PipelineOpts{
		Trace: hub, Compression: "off", Obs: reg,
		Timeout: time.Second, RetryMax: 6, RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("dial through two corrupted handshakes: %v", err)
	}
	defer cl.Close()
	if n := conns.Load(); n != 3 {
		t.Fatalf("proxy saw %d connections, want 3 (corrupt hello, corrupt reply, clean)", n)
	}
	want := rdma.Hello{Version: rdma.ProtoVersion, Opts: rdma.OptTrace}
	if cl.hello != want || !cl.trace || cl.compress {
		t.Fatalf("session = %+v trace=%v compress=%v, want %+v", cl.hello, cl.trace, cl.compress, want)
	}
	// Both ends run that session: a traced, uncompressed round trip works
	// and is attributed.
	img := compressible(512)
	if err := cl.WriteObj(1, 1, img); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(img))
	if err := cl.ReadObj(1, 1, got); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("round trip on the retried session: %v", err)
	}
	ssnap := srv.ObsSnapshot()
	if ssnap.Counter(MetricWireBytes, "verb", "READBATCH-C") == 0 {
		t.Fatal("server did not see the session's read")
	}
	if ssnap.Histogram(MetricWireCompressRatio).Count != 0 {
		t.Fatal("server compressed on a session that asked for Compression off")
	}
	if reg.Snapshot().Counter(MetricAttribOps, "ds", "1") == 0 {
		t.Fatal("traced session produced no attribution")
	}
}

// TestHandshakeSecondHelloRefused: the hello is the first frame of a
// connection and only that — sent again mid-session it is refused and
// the connection closed, so a session's shape can never change under
// the workers serving it.
func TestHandshakeSecondHelloRefused(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	srv, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h := rdma.Hello{Version: rdma.ProtoVersion}
	rdma.WriteFrame(conn, rdma.HelloFrame(rdma.OpHello, h))
	if resp, err := rdma.ReadFrame(conn); err != nil || resp.Op != rdma.OpOK || !bytes.Equal(resp.Payload, h.Append(nil)) {
		t.Fatalf("hello reply = %+v, %v; want OK echoing the record", resp, err)
	}
	// The session works...
	rdma.WriteFrameCRC(conn, rdma.EncodeReadBatchCPooled(7, []rdma.ReadReq{{DS: 0, Idx: 0, Size: 8}}))
	if resp, err := rdma.ReadFrameOpts(conn, true, false); err != nil || resp.Op != rdma.OpDataBatchC || resp.Tag != 7 {
		t.Fatalf("read on the fresh session = %+v, %v", resp, err)
	}
	// ...until a second hello tries to renegotiate it.
	before := srv.ObsSnapshot().Counters[MetricErrors]
	rdma.WriteFrameCRC(conn, rdma.HelloFrame(rdma.OpHello, rdma.Hello{Version: rdma.ProtoVersion, Opts: rdma.OptTrace}))
	resp, err := rdma.ReadFrameOpts(conn, true, false)
	if err != nil || resp.Op != rdma.OpErr {
		t.Fatalf("second hello = %+v, %v; want ERR", resp, err)
	}
	if _, err := rdma.ReadFrameOpts(conn, true, false); err == nil {
		t.Fatal("connection still open after a mid-session hello")
	}
	if got := srv.ObsSnapshot().Counters[MetricErrors]; got != before+1 {
		t.Fatalf("errors counter = %d, want %d", got, before+1)
	}
}

// TestDialPipelinedHelloDeadline: a server that accepts and then never
// answers the hello must not hang the dial — it returns ErrTimeout
// (which also matches os.ErrDeadlineExceeded) within the budget.
func TestDialPipelinedHelloDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn) // swallow the hello, never answer
	}()
	start := time.Now()
	_, err = DialPipelined(ln.Addr().String(), PipelineOpts{Timeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("dial against a mute server = %v, want ErrTimeout / os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("timed out after %v, deadline did not bound the handshake", d)
	}
}

// recordConn tees a server-side connection: in collects everything the
// client sent, out everything the server answered.
type recordConn struct {
	net.Conn
	mu      *sync.Mutex
	in, out *bytes.Buffer
}

func (r recordConn) Read(p []byte) (int, error) {
	n, err := r.Conn.Read(p)
	r.mu.Lock()
	r.in.Write(p[:n])
	r.mu.Unlock()
	return n, err
}

func (r recordConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.out.Write(p)
	r.mu.Unlock()
	return r.Conn.Write(p)
}

// recordedStreams runs ops on a client of the real server dialed with
// opts and returns the raw bytes each side sent after its handshake
// frame (HELLO one way, OK the other).
func recordedStreams(t *testing.T, opts PipelineOpts, ops func(*PipelinedClient)) (c2s, s2c []byte) {
	t.Helper()
	srv := NewServer()
	rec := recordConn{mu: new(sync.Mutex), in: new(bytes.Buffer), out: new(bytes.Buffer)}
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		rec.Conn = c.(net.Conn)
		return rec
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := DialPipelined(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops(cl)
	cl.Close()
	srv.Close() // the server goroutine has drained the stream

	afterHello := func(dir string, stream []byte, first rdma.Op) []byte {
		r := bytes.NewReader(stream)
		if f, err := rdma.ReadFrame(r); err != nil || f.Op != first {
			t.Fatalf("%s stream opens with %s (%v), want %s", dir, f.Op, err, first)
		}
		return stream[len(stream)-r.Len():]
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return afterHello("client", rec.in.Bytes(), rdma.OpHello), afterHello("server", rec.out.Bytes(), rdma.OpOK)
}

// recordedSession is recordedStreams parsed under the framing an
// untraced session must have — CRC trailer, no trace block. A stray
// extension byte anywhere fails the parse.
func recordedSession(t *testing.T, opts PipelineOpts, ops func(*PipelinedClient)) (c2s, s2c []rdma.Frame) {
	t.Helper()
	parse := func(dir string, stream []byte) []rdma.Frame {
		r := bytes.NewReader(stream)
		var frames []rdma.Frame
		for r.Len() > 0 {
			f, err := rdma.ReadFrameOpts(r, true, false)
			if err != nil {
				t.Fatalf("%s stream does not parse as untraced CRC frames after %d frames: %v", dir, len(frames), err)
			}
			frames = append(frames, f)
		}
		return frames
	}
	in, out := recordedStreams(t, opts, ops)
	return parse("client", in), parse("server", out)
}

// TestSessionOptionsShapeTheWire pins what each hello option keeps off
// the wire when it is not asked for: an untraced session carries no
// trace block, a Compression "off" session no compressed segment, LZ or
// bit-packed — in either direction, whatever the data.
func TestSessionOptionsShapeTheWire(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	verbs := func(frames []rdma.Frame) string {
		var s []string
		for _, f := range frames {
			s = append(s, f.Op.String())
		}
		return strings.Join(s, " ")
	}
	for _, tc := range []struct {
		img    []byte
		scheme uint8 // what a default session sends it as
	}{
		{compressible(4096), rdma.SchemeLZ},
		{sparseInt64(4096, rand.New(rand.NewSource(3))), rdma.SchemeWords},
	} {
		img := tc.img
		ops := func(cl *PipelinedClient) {
			t.Helper()
			if err := cl.WriteObj(1, 1, img); err != nil {
				t.Fatal(err)
			}
			errCh := make(chan error, 1)
			cl.IssueWriteRanges(1, 1, img, []rdma.Extent{{Off: 64, Len: 64}}, func(err error) { errCh <- err })
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(img))
			if err := cl.ReadObj(1, 1, got); err != nil || !bytes.Equal(got, img) {
				t.Fatalf("read back: %v", err)
			}
		}

		c2s, s2c := recordedSession(t, PipelineOpts{Compression: "off"}, ops)
		if got, want := verbs(c2s), "WRITEBATCH-C WRITEBATCH-C READBATCH-C"; got != want {
			t.Fatalf("client sent %q, want %q", got, want)
		}
		if got, want := verbs(s2c), "ACKBATCH-C ACKBATCH-C DATABATCH-C"; got != want {
			t.Fatalf("server answered %q, want %q", got, want)
		}
		for _, f := range c2s[:2] {
			reqs, _, err := rdma.DecodeWriteBatchCInto(f.Payload, nil, nil, false)
			if err != nil || len(reqs) != 1 || reqs[0].Scheme != rdma.SchemeRaw {
				t.Fatalf("Compression off: write tuple %+v (%v), want one raw tuple", reqs, err)
			}
		}
		segs, err := rdma.DecodeDataBatchCInto(s2c[2].Payload, nil)
		if err != nil || len(segs) != 1 || segs[0].Scheme != rdma.SchemeRaw {
			t.Fatalf("Compression off: reply segment %+v (%v), want one raw segment", segs, err)
		}

		// The control: the same ops on a default session do compress.
		c2s, s2c = recordedSession(t, PipelineOpts{}, ops)
		if reqs, _, err := rdma.DecodeWriteBatchCInto(c2s[0].Payload, nil, nil, false); err != nil || reqs[0].Scheme != tc.scheme {
			t.Fatalf("default session should send the object as scheme %d: %+v (%v)", tc.scheme, reqs, err)
		}
		if segs, err := rdma.DecodeDataBatchCInto(s2c[2].Payload, nil); err != nil || segs[0].Scheme == rdma.SchemeRaw {
			t.Fatalf("default session should be answered with a compressed segment: %+v (%v)", segs, err)
		}
	}
}
