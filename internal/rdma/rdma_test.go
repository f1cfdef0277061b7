package rdma

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Op: OpErr, Payload: []byte("hello far memory")}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("roundtrip: %+v vs %+v", in, out)
	}
}

func TestEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpOK}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil || f.Op != OpOK || len(f.Payload) != 0 {
		t.Fatalf("f = %+v, err = %v", f, err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpErr, Payload: make([]byte, MaxFrame+1)}); err == nil {
		t.Fatal("oversized write should fail")
	}
	// Forged oversized header.
	forged := []byte{0xff, 0xff, 0xff, 0xff, byte(OpErr)}
	if _, err := ReadFrame(bytes.NewReader(forged)); err == nil {
		t.Fatal("oversized read should fail")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Op: OpErr, Payload: []byte("abcdef")})
	raw := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(raw[:3])); err == nil {
		t.Fatal("truncated header should fail")
	}
	if _, err := ReadFrame(bytes.NewReader(raw[:7])); err == nil {
		t.Fatal("truncated payload should fail")
	}
}

func TestReadReqCodec(t *testing.T) {
	f := EncodeReadBatchCPooled(1, []ReadReq{{DS: 3, Idx: 77, Size: 4096}})
	defer PutBuf(f.Payload)
	if f.Op != OpReadBatchC {
		t.Fatal("wrong op")
	}
	reqs, err := DecodeReadBatchCInto(f.Payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0] != (ReadReq{DS: 3, Idx: 77, Size: 4096}) {
		t.Fatalf("reqs = %+v", reqs)
	}
	if _, err := DecodeReadBatchCInto(f.Payload[:2], nil); err == nil {
		t.Fatal("short payload should fail")
	}
}

func TestWriteReqCodec(t *testing.T) {
	data := []byte{9, 8, 7, 6}
	for _, stamped := range []bool{false, true} {
		f, err := EncodeWriteBatchCPooled(1, []WriteReqC{{DS: 1, Idx: 2, Epoch: 5, RawLen: 4, Data: data}}, stamped)
		if err != nil {
			t.Fatal(err)
		}
		if (f.Op&EpochBit != 0) != stamped || f.Op&^EpochBit != OpWriteBatchC {
			t.Fatalf("stamped=%v encoded as %s", stamped, f.Op)
		}
		reqs, _, err := DecodeWriteBatchCInto(f.Payload, nil, nil, stamped)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != 1 || reqs[0].DS != 1 || reqs[0].Idx != 2 || !bytes.Equal(reqs[0].Data, data) ||
			(reqs[0].Epoch == 5) != stamped {
			t.Fatalf("reqs = %+v", reqs)
		}
		if _, _, err := DecodeWriteBatchCInto([]byte{0x21}, nil, nil, stamped); err == nil {
			t.Fatal("short payload should fail")
		}
		// Length mismatch.
		bad := append(append([]byte(nil), f.Payload...), 0xEE)
		if _, _, err := DecodeWriteBatchCInto(bad, nil, nil, stamped); err == nil {
			t.Fatal("length mismatch should fail")
		}
		PutBuf(f.Payload)
	}
}

func TestOpStrings(t *testing.T) {
	for _, op := range []Op{OpHello, OpOK, OpErr} {
		if strings.HasPrefix(op.String(), "op(") {
			t.Errorf("missing name for op %d", op)
		}
	}
	if !strings.HasPrefix(Op(99).String(), "op(") {
		t.Error("unknown op should fall back")
	}
}

// Property: arbitrary write-request payloads, stamped or not, roundtrip
// through frame + codec.
func TestWriteCodecProperty(t *testing.T) {
	f := func(ds, idx uint32, epoch uint64, stamped bool, data []byte) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		fr, err := EncodeWriteBatchCPooled(7, []WriteReqC{{DS: ds, Idx: idx, Epoch: epoch, RawLen: uint32(len(data)), Data: data}}, stamped)
		var buf bytes.Buffer
		if err != nil || WriteFrame(&buf, fr) != nil {
			return false
		}
		PutBuf(fr.Payload)
		got, err := ReadFrame(&buf)
		if err != nil || got.Op != fr.Op {
			return false
		}
		reqs, _, err := DecodeWriteBatchCInto(got.Payload, nil, nil, stamped)
		if err != nil || len(reqs) != 1 {
			return false
		}
		req := reqs[0]
		return req.DS == ds && req.Idx == idx && bytes.Equal(req.Data, data) && (!stamped || req.Epoch == epoch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
