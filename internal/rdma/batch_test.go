package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestTaggedFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Op: OpDataBatchC | EpochBit, Tag: 0xDEADBEEF, Payload: []byte{4, 0, 0, 0}}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	// Wire layout: u32 len | u8 op | u32 tag | payload.
	raw := buf.Bytes()
	if got := binary.LittleEndian.Uint32(raw[0:4]); got != uint32(len(in.Payload)) {
		t.Fatalf("payloadLen on wire = %d, want %d (must exclude the tag)", got, len(in.Payload))
	}
	if Op(raw[4]) != OpDataBatchC|EpochBit {
		t.Fatalf("op on wire = %d", raw[4])
	}
	if got := binary.LittleEndian.Uint32(raw[5:9]); got != in.Tag {
		t.Fatalf("tag on wire = %#x, want %#x", got, in.Tag)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Tag != in.Tag || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("roundtrip: %+v vs %+v", in, out)
	}
	if want := uint64(len(raw)); in.WireSize() != want {
		t.Fatalf("WireSize = %d, want %d", in.WireSize(), want)
	}
}

func TestUntaggedFramesUnchanged(t *testing.T) {
	// The control frames (HELLO, OK, ERR) carry no tag on the wire.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpOK, Tag: 0xFFFFFFFF}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 5 {
		t.Fatalf("untagged empty frame = %d bytes, want 5", buf.Len())
	}
	f, err := ReadFrame(&buf)
	if err != nil || f.Tag != 0 {
		t.Fatalf("f = %+v, err = %v (untagged reads must leave Tag zero)", f, err)
	}
}

func TestTaggedOpPredicate(t *testing.T) {
	for _, op := range []Op{
		OpReadBatchC, OpDataBatchC, OpWriteBatchC, OpAckBatchC, OpChaseBatch, OpChaseData, OpErrTag,
		OpReadBatchC | EpochBit, OpDataBatchC | EpochBit, OpWriteBatchC | EpochBit,
	} {
		if !op.Tagged() {
			t.Errorf("%s should be tagged", op)
		}
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("missing name for tagged op %d", op)
		}
	}
	for _, op := range []Op{OpHello, OpOK, OpErr} {
		if op.Tagged() {
			t.Errorf("%s should not be tagged", op)
		}
	}
	// The modifier names nothing on its own: opcodes it does not apply
	// to, and the values older protocol versions used, have no name.
	for _, op := range []Op{OpAckBatchC | EpochBit, OpChaseBatch | EpochBit, TagBit | 0x06, TagBit | 0x10} {
		if !strings.HasPrefix(op.String(), "op(") {
			t.Errorf("op %#x should have no name, got %s", uint8(op), op)
		}
	}
}

func TestTaggedFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Op: OpErrTag, Tag: 7, Payload: nil})
	raw := buf.Bytes()
	// Cut inside the tag: header parses, tag read must fail.
	if _, err := ReadFrame(bytes.NewReader(raw[:7])); err == nil {
		t.Fatal("truncated tag should fail")
	}
}

// TestReadBatchCodec pins the reference READBATCH layout the ladder
// measures against: u32 count, then fixed-width (ds, idx, size) tuples.
func TestReadBatchCodec(t *testing.T) {
	reqs := []ReadReq{{DS: 1, Idx: 2, Size: 64}, {DS: 3, Idx: 9, Size: 4096}}
	f := EncodeReadBatchPooled(42, reqs)
	defer PutBuf(f.Payload)
	if f.Op != OpReadBatch || f.Tag != 42 {
		t.Fatalf("frame = %+v", f)
	}
	if len(f.Payload) != 4+readReqSize*len(reqs) || binary.LittleEndian.Uint32(f.Payload) != 2 {
		t.Fatalf("payload is %d bytes, count %d", len(f.Payload), binary.LittleEndian.Uint32(f.Payload))
	}
	for i, r := range reqs {
		p := f.Payload[4+i*readReqSize:]
		got := ReadReq{binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:]), binary.LittleEndian.Uint32(p[8:])}
		if got != r {
			t.Fatalf("tuple %d on the wire = %+v, want %+v", i, got, r)
		}
	}
}

func TestDataBatchCodec(t *testing.T) {
	segs := [][]byte{[]byte("abc"), nil, []byte("0123456789")}
	f, err := EncodeDataBatch(7, segs)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != OpDataBatch || f.Tag != 7 {
		t.Fatalf("frame = %+v", f)
	}
	got, err := DecodeDataBatchInto(f.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(segs) {
		t.Fatalf("got %d segments", len(got))
	}
	for i := range segs {
		if !bytes.Equal(got[i], segs[i]) {
			t.Errorf("segment %d = %q, want %q", i, got[i], segs[i])
		}
	}
}

func TestDataBatchTruncation(t *testing.T) {
	f, _ := EncodeDataBatch(1, [][]byte{[]byte("payload")})
	p := f.Payload
	if _, err := DecodeDataBatchInto(p[:2], nil); err == nil {
		t.Fatal("short header should fail")
	}
	if _, err := DecodeDataBatchInto(p[:6], nil); err == nil {
		t.Fatal("cut inside segment length should fail")
	}
	if _, err := DecodeDataBatchInto(p[:len(p)-2], nil); err == nil {
		t.Fatal("cut inside segment bytes should fail")
	}
	if _, err := DecodeDataBatchInto(append(append([]byte(nil), p...), 0), nil); err == nil {
		t.Fatal("trailing garbage should fail")
	}
	// Forged count far beyond the payload must not drive the allocation.
	forged := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeDataBatchInto(forged, nil); err == nil {
		t.Fatal("forged count should fail")
	}
}

func TestDataBatchOversized(t *testing.T) {
	// One segment over MaxFrame: encode must refuse (the write path), and
	// a forged oversized tagged header must be rejected before the tag is
	// even read (the read path).
	if _, err := EncodeDataBatch(1, [][]byte{make([]byte, MaxFrame)}); err == nil {
		t.Fatal("oversized DATABATCH encode should fail")
	}
	if err := WriteFrame(&bytes.Buffer{}, Frame{Op: OpDataBatch, Tag: 1, Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("oversized tagged write should fail")
	}
	forged := []byte{0xff, 0xff, 0xff, 0xff, byte(OpDataBatch), 1, 0, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(forged)); err == nil {
		t.Fatal("oversized tagged read should fail")
	}
}

func TestFeatureNegotiationCodec(t *testing.T) {
	want := Hello{Version: ProtoVersion, Opts: OptTrace | OptCompress}
	f := HelloFrame(OpHello, want)
	if f.Op != OpHello || len(f.Payload) != HelloSize {
		t.Fatalf("frame = %+v", f)
	}
	got, err := DecodeHello(f.Payload)
	if err != nil || got != want || !got.Valid() {
		t.Fatalf("hello = %+v, %v", got, err)
	}
	// The record checks itself: any flipped bit, and anything too short
	// to be a record (the 4-byte feature word this replaced), is refused.
	for i := 0; i < HelloSize*8; i++ {
		bad := append([]byte(nil), f.Payload...)
		bad[i/8] ^= 1 << (i % 8)
		if _, err := DecodeHello(bad); !errors.Is(err, ErrHelloCheck) {
			t.Fatalf("bit %d flipped: err = %v, want ErrHelloCheck", i, err)
		}
	}
	if _, err := DecodeHello([]byte{0xFF, 0, 0, 0}); !errors.Is(err, ErrHelloCheck) {
		t.Fatalf("short payload: err = %v", err)
	}
	// A refusal leads with the refuser's own record, then the message.
	e := HelloErrFrame("no")
	if h, err := DecodeHello(e.Payload); err != nil || h.Version != ProtoVersion ||
		e.Op != OpErr || string(e.Payload[HelloSize:]) != "no" {
		t.Fatalf("refusal = %+v (%v)", e, err)
	}
	for _, h := range []Hello{
		{Version: ProtoVersion + 1},
		{Version: ProtoVersion - 1, Opts: OptTrace}, // the version that still had a second wire tier
		{Version: ProtoVersion, Opts: 1 << 9},
		{Version: ProtoVersion, Opts: 1 << 2}, // version 2's third option bit
	} {
		if h.Valid() {
			t.Errorf("%+v should not be a runnable session", h)
		}
	}
}

func TestErrTagFrame(t *testing.T) {
	f := ErrTagFrame(9, "boom")
	if f.Op != OpErrTag || f.Tag != 9 || string(f.Payload) != "boom" {
		t.Fatalf("frame = %+v", f)
	}
}

// Property: arbitrary read batches, stamped or not, roundtrip through
// frame + codec with the modifier intact.
func TestReadBatchProperty(t *testing.T) {
	f := func(tag uint32, stamped bool, tuples []ReadReq) bool {
		if len(tuples) > 1024 {
			tuples = tuples[:1024]
		}
		for i := range tuples {
			tuples[i].Size %= MaxFrame + 1
		}
		fr := EncodeReadBatchCPooled(tag, tuples)
		defer PutBuf(fr.Payload)
		if stamped {
			fr.Op |= EpochBit
		}
		var buf bytes.Buffer
		if WriteFrame(&buf, fr) != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil || got.Tag != tag || got.Op != fr.Op || (got.Op&EpochBit != 0) != stamped {
			return false
		}
		reqs, err := DecodeReadBatchCInto(got.Payload, nil)
		if err != nil || len(reqs) != len(tuples) {
			return false
		}
		for i := range reqs {
			if reqs[i] != tuples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
