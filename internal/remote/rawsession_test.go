package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"

	"cards/internal/rdma"
)

// rawSession is a hand-driven client of one served connection: it says
// hello with the options it is given and then exchanges one tagged frame
// at a time, so a test chooses the exact tuples on the wire (scheme,
// lengths, epoch) instead of whatever the pipelined client's policy
// would pick.
type rawSession struct {
	tb       testing.TB
	conn     net.Conn
	compress bool
	tag      uint32
	segs     []rdma.DataSegC
}

// dialRaw serves one end of a net.Pipe from srv and says hello on the
// other with opts (rdma.OptCompress or 0).
func dialRaw(tb testing.TB, srv *Server, opts uint16) *rawSession {
	tb.Helper()
	c1, c2 := net.Pipe()
	var sconn io.ReadWriteCloser = c1
	if srv.ConnWrap != nil {
		sconn = srv.ConnWrap(sconn)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(sconn)
	}()
	tb.Cleanup(func() {
		c2.Close()
		<-done
	})
	return helloRaw(tb, c2, opts)
}

// dialRawTCP is dialRaw over TCP loopback: srv listens (and is closed
// with the test), so its ConnWrap and Drain see the connection.
func dialRawTCP(tb testing.TB, srv *Server, opts uint16) *rawSession {
	tb.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		conn.Close()
		srv.Close()
	})
	return helloRaw(tb, conn, opts)
}

func helloRaw(tb testing.TB, conn net.Conn, opts uint16) *rawSession {
	tb.Helper()
	if err := rdma.WriteFrame(conn, rdma.HelloFrame(rdma.OpHello, rdma.Hello{Version: rdma.ProtoVersion, Opts: opts})); err != nil {
		tb.Fatal(err)
	}
	if resp, err := rdma.ReadFrame(conn); err != nil || resp.Op != rdma.OpOK {
		tb.Fatalf("hello reply = %s, %v", resp.Op, err)
	}
	return &rawSession{tb: tb, conn: conn, compress: opts&rdma.OptCompress != 0}
}

// burst tags the frames (their payloads pooled, released here) and
// returns them as they travel, back to back: one Write of the result, or
// of any cut of it, is one read burst at the server. The tags are
// returned in frame order.
func (s *rawSession) burst(frames ...rdma.Frame) (wire []byte, tags []uint32) {
	for _, f := range frames {
		s.tag++
		f.Tag = s.tag
		tags = append(tags, f.Tag)
		wire = rdma.AppendFrameCRC(wire, f)
		rdma.PutBuf(f.Payload)
	}
	return wire, tags
}

// recv reads one reply, whichever comes next.
func (s *rawSession) recv() rdma.Frame {
	s.tb.Helper()
	resp, err := rdma.ReadFrameOpts(s.conn, true, false)
	if err != nil {
		s.tb.Fatalf("reading a reply: %v", err)
	}
	return resp
}

// call sends one request (its payload pooled, released here) and returns
// the reply, whose pooled payload the caller releases.
func (s *rawSession) call(f rdma.Frame) rdma.Frame {
	s.tb.Helper()
	s.tag++
	f.Tag = s.tag
	err := rdma.WriteFrameCRC(s.conn, f)
	rdma.PutBuf(f.Payload)
	if err != nil {
		s.tb.Fatal(err)
	}
	resp, err := rdma.ReadFrameOpts(s.conn, true, false)
	if err != nil {
		s.tb.Fatalf("reply to %s: %v", f.Op, err)
	}
	if resp.Tag != s.tag {
		s.tb.Fatalf("reply to %s carries tag %d, want %d", f.Op, resp.Tag, s.tag)
	}
	return resp
}

// write sends one WRITEBATCH-C (stamped when epoch is set) and returns
// the rejected bitmap, or the server's refusal.
func (s *rawSession) write(epoch bool, reqs ...rdma.WriteReqC) (rejected []uint64, err error) {
	s.tb.Helper()
	f, err := rdma.EncodeWriteBatchCPooled(0, reqs, epoch)
	if err != nil {
		s.tb.Fatal(err)
	}
	resp := s.call(f)
	defer rdma.PutBuf(resp.Payload)
	if resp.Op == rdma.OpErrTag {
		return nil, fmt.Errorf("ERRTAG: %s", resp.Payload)
	}
	n, rej, _, derr := rdma.DecodeAckBatchC(resp.Payload, nil)
	if resp.Op != rdma.OpAckBatchC || derr != nil || n != len(reqs) {
		s.tb.Fatalf("write answered with %s acking %d of %d tuples (%v)", resp.Op, n, len(reqs), derr)
	}
	return rej, nil
}

// read sends one READBATCH-C (stamped when epoch is set) and returns
// each object expanded to raw bytes, plus the stored epochs of a stamped
// read. A session that did not ask for compression must never be sent
// a compressed segment, LZ or bit-packed.
func (s *rawSession) read(epoch bool, reqs ...rdma.ReadReq) (objs [][]byte, epochs []uint64) {
	s.tb.Helper()
	f := rdma.EncodeReadBatchCPooled(0, reqs)
	want := rdma.OpDataBatchC
	if epoch {
		f.Op |= rdma.EpochBit
		want |= rdma.EpochBit
	}
	resp := s.call(f)
	defer rdma.PutBuf(resp.Payload)
	segs, err := rdma.DecodeDataSegsInto(resp.Payload, s.segs, epoch)
	if resp.Op != want || err != nil || len(segs) != len(reqs) {
		s.tb.Fatalf("read answered with %s, %d of %d segments (%v): %q", resp.Op, len(segs), len(reqs), err, resp.Payload)
	}
	s.segs = segs
	for i, sg := range segs {
		if sg.RawLen != reqs[i].Size {
			s.tb.Fatalf("segment %d expands to %d bytes, asked for %d", i, sg.RawLen, reqs[i].Size)
		}
		out := make([]byte, sg.RawLen)
		switch sg.Scheme {
		case rdma.SchemeRaw:
			copy(out, sg.Data)
		case rdma.SchemeLZ, rdma.SchemeWords:
			if !s.compress {
				s.tb.Fatalf("segment %d is compressed (scheme %d) on a session that did not ask for compression", i, sg.Scheme)
			}
			if err := rdma.UnpackBlock(sg.Scheme, out, sg.Data); err != nil {
				s.tb.Fatalf("segment %d (scheme %d): %v", i, sg.Scheme, err)
			}
		}
		objs = append(objs, out)
		epochs = append(epochs, sg.Epoch)
	}
	return objs, epochs
}

// chase runs one traversal program and returns its result with the hop
// bytes copied out of the reply.
func (s *rawSession) chase(req rdma.ChaseReq) rdma.ChaseResult {
	s.tb.Helper()
	resp := s.call(rdma.EncodeChaseBatchPooled(0, []rdma.ChaseReq{req}))
	defer rdma.PutBuf(resp.Payload)
	res, err := rdma.DecodeChaseDataInto(resp.Payload, nil)
	if resp.Op != rdma.OpChaseData || err != nil || len(res) != 1 {
		s.tb.Fatalf("chase answered with %s, %d results (%v): %q", resp.Op, len(res), err, resp.Payload)
	}
	return copyChaseResult(res[0])
}

// fullTuple builds a full-object write tuple for img: SchemeZero for an
// all-zero image; otherwise in the scheme asked for where img admits it
// — SchemeWords an image of small words, else (and for SchemeLZ) an LZ
// block if that is shorter — and SchemeRaw where it does not.
func fullTuple(ds, idx uint32, epoch uint64, img []byte, scheme uint8) rdma.WriteReqC {
	r := rdma.WriteReqC{DS: ds, Idx: idx, Epoch: epoch, RawLen: uint32(len(img)), Scheme: rdma.SchemeRaw, Data: img}
	comp := make([]byte, rdma.CompressBound(len(img)))
	switch lo, w := rdma.ScanWords(img); {
	case w == 0:
		r.Scheme, r.Data = rdma.SchemeZero, nil
	case scheme == rdma.SchemeWords && w > 0:
		r.Scheme, r.Data = rdma.SchemeWords, comp[:rdma.PackWords(comp, img, lo, w)]
	case scheme != rdma.SchemeRaw:
		if n, ok := rdma.LZCompress(comp, img); ok && n < len(img) {
			r.Scheme, r.Data = rdma.SchemeLZ, comp[:n]
		}
	}
	return r
}

// sparseInt64 fills n bytes with the shape of a bfs adjacency object:
// small int64s, about 60 % of the words zero.
func sparseInt64(n int, rng *rand.Rand) []byte {
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		if rng.Intn(10) >= 6 {
			binary.LittleEndian.PutUint64(b[i:], uint64(rng.Intn(1024)))
		}
	}
	return b
}
