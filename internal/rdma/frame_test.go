package rdma

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// sessionReaders reads checksummed frames out of one byte string twice
// over — with the one-shot reader and with a FrameReader whose buffer is
// smaller than most frames, so headers, payloads and trailers straddle
// refills — and fails the test wherever the two disagree. Every CRC and
// trace-block test reads through it.
type sessionReaders struct {
	tb    testing.TB
	trace bool
	one   *bytes.Reader
	fr    *FrameReader
}

func newSessionReaders(tb testing.TB, wire []byte, trace bool) *sessionReaders {
	return &sessionReaders{
		tb: tb, trace: trace,
		one: bytes.NewReader(wire),
		fr:  NewFrameReader(bufio.NewReaderSize(bytes.NewReader(wire), 64), trace),
	}
}

func (s *sessionReaders) next() (Frame, error) {
	s.tb.Helper()
	a, aerr := ReadFrameOpts(s.one, true, s.trace)
	b, berr := s.fr.Read()
	defer PutBuf(b.Payload)
	switch {
	case (aerr == nil) != (berr == nil), errors.Is(aerr, ErrCRC) != errors.Is(berr, ErrCRC):
		s.tb.Fatalf("one-shot reader: %v; FrameReader: %v", aerr, berr)
	case aerr == nil && (a.Op != b.Op || a.Tag != b.Tag || a.HasExt != b.HasExt || a.Ext != b.Ext || !bytes.Equal(a.Payload, b.Payload)):
		s.tb.Fatalf("one-shot reader decoded %+v, FrameReader %+v", a, b)
	}
	return a, aerr
}

// sessionBytes encodes f the three ways a session frame is written — in
// pieces to a plain writer, in place into a bufio.Writer's free space,
// appended to a slice — and fails the test unless all agree.
func sessionBytes(tb testing.TB, f Frame) []byte {
	tb.Helper()
	var pieces, inPlace bytes.Buffer
	bw := bufio.NewWriterSize(&inPlace, int(f.WireSize())+crcSize)
	if err := WriteFrameCRC(&pieces, f); err != nil {
		tb.Fatal(err)
	}
	if err := WriteFrameCRC(bw, f); err != nil || bw.Flush() != nil {
		tb.Fatalf("buffered write: %v", err)
	}
	wire := AppendFrameCRC(nil, f)
	if !bytes.Equal(wire, pieces.Bytes()) || !bytes.Equal(wire, inPlace.Bytes()) {
		tb.Fatalf("frame %s encodes three ways:\n pieces   %x\n in place %x\n appended %x", f.Op, pieces.Bytes(), inPlace.Bytes(), wire)
	}
	return wire
}

// TestTraceBlockRoundTrip: both halves of the trace block survive the
// wire on tagged frames, untagged frames of a traced session carry none,
// and the block is under the checksum.
func TestTraceBlockRoundTrip(t *testing.T) {
	req := Frame{Op: OpReadBatchC, Tag: 11, Payload: []byte{1, 2, 3}}
	req.SetTraceCtx(0xA11CE, 0xB0B, true)
	resp := Frame{Op: OpDataBatchC | EpochBit, Tag: 11, Payload: bytes.Repeat([]byte{7}, 200)}
	resp.SetServerStamp(123456, 3, 17)
	var wire []byte
	for _, f := range []Frame{req, resp, {Op: OpOK, Payload: []byte{9}}} {
		wire = append(wire, sessionBytes(t, f)...)
	}
	rd := newSessionReaders(t, wire, true)
	got, err := rd.next()
	if id, span, sampled := got.TraceCtx(); err != nil || !got.HasExt || id != 0xA11CE || span != 0xB0B || !sampled {
		t.Fatalf("request block: %+v, %v", got, err)
	}
	got, err = rd.next()
	if recv, q, sv := got.ServerStamp(); err != nil || recv != 123456 || q != 3 || sv != 17 || len(got.Payload) != 200 {
		t.Fatalf("reply block: %+v, %v", got, err)
	}
	if got, err = rd.next(); err != nil || got.HasExt || got.Op != OpOK {
		t.Fatalf("untagged frame on a traced session: %+v, %v", got, err)
	}
	bad := sessionBytes(t, req)
	bad[headerSize+tagSize+2] ^= 1 // inside the trace block
	if _, err := newSessionReaders(t, bad, true).next(); !errors.Is(err, ErrCRC) {
		t.Fatalf("flipped trace-block bit: err = %v, want ErrCRC", err)
	}
}

// TestFrameReaderBuffered walks "n bytes have arrived" across every
// boundary of a frame: only a frame that is there to its last trailer
// byte is buffered, and one byte of the next frame changes nothing.
func TestFrameReaderBuffered(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 40)
	for _, tagged := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			f := Frame{Op: OpOK, Payload: payload}
			hdr := headerSize
			if tagged {
				f = Frame{Op: OpReadBatchC, Tag: 5, Payload: payload}
				hdr += tagSize
				if traced {
					f.SetTraceCtx(1, 2, true)
					hdr += traceExtSize
				}
			}
			wire := append(sessionBytes(t, f), 0xEE) // and the next frame's first byte
			exact := len(wire) - 1
			for _, tc := range []struct {
				what string
				n    int
			}{
				{"nothing", 0}, {"length prefix", 4}, {"header", headerSize}, {"header, tag and block", hdr},
				{"all but a trailer byte", exact - 1}, {"the frame", exact}, {"the frame and a byte", exact + 1},
			} {
				name := fmt.Sprintf("tagged=%v/traced=%v/%s", tagged, traced, tc.what)
				br := bufio.NewReaderSize(bytes.NewReader(wire[:tc.n]), 256)
				br.Peek(1) // one fill: everything that "arrived" is in the buffer
				fr := NewFrameReader(br, traced)
				if got, want := fr.Buffered(), tc.n >= exact; got != want {
					t.Errorf("%s: Buffered() = %v with %d of %d bytes, want %v", name, got, tc.n, exact, want)
				}
				if tc.n >= exact {
					if got, err := fr.Read(); err != nil || got.Tag != f.Tag || !bytes.Equal(got.Payload, payload) {
						t.Errorf("%s: Read = %+v, %v", name, got, err)
					}
					if fr.Buffered() {
						t.Errorf("%s: still Buffered() after the only frame was read", name)
					}
				}
			}
		}
	}
}

func TestBatchCount(t *testing.T) {
	for _, n := range []int{0, 1, 4, 5, 64, 1000} {
		reqs := make([]ReadReq, n)
		for i := range reqs {
			reqs[i] = ReadReq{DS: 1, Idx: uint32(i), Size: 4096}
		}
		f := EncodeReadBatchCPooled(1, reqs)
		if got, ok := BatchCount(f.Payload); !ok || got != uint64(n) {
			t.Errorf("READBATCH-C of %d: BatchCount = %d, %v", n, got, ok)
		}
		PutBuf(f.Payload)
	}
	w, err := EncodeWriteBatchCPooled(1, []WriteReqC{{DS: 1, Idx: 2, RawLen: 8, Data: make([]byte, 8)}, {DS: 1, Idx: 3, Scheme: SchemeZero, RawLen: 8}}, true)
	if got, ok := BatchCount(w.Payload); err != nil || !ok || got != 2 {
		t.Errorf("WRITEBATCH-C of 2: BatchCount = %d, %v (%v)", got, ok, err)
	}
	if _, ok := BatchCount(nil); ok {
		t.Error("an empty payload has no count")
	}
}
