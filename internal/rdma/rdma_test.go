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
	f := EncodeReadBatch(1, []ReadReq{{DS: 3, Idx: 77, Size: 4096}})
	if f.Op != OpReadBatch {
		t.Fatal("wrong op")
	}
	reqs, err := DecodeReadBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0] != (ReadReq{DS: 3, Idx: 77, Size: 4096}) {
		t.Fatalf("reqs = %+v", reqs)
	}
	if _, err := DecodeReadBatch([]byte{1, 2}); err == nil {
		t.Fatal("short payload should fail")
	}
}

func TestWriteReqCodec(t *testing.T) {
	data := []byte{9, 8, 7, 6}
	f, err := EncodeWriteBatch(1, []WriteReq{{DS: 1, Idx: 2, Data: data}})
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := DecodeWriteBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 1 || reqs[0].DS != 1 || reqs[0].Idx != 2 || !bytes.Equal(reqs[0].Data, data) {
		t.Fatalf("reqs = %+v", reqs)
	}
	if _, err := DecodeWriteBatch([]byte{0}); err == nil {
		t.Fatal("short payload should fail")
	}
	// Length mismatch.
	bad := append([]byte(nil), f.Payload...)
	bad = append(bad, 0xEE)
	if _, err := DecodeWriteBatch(bad); err == nil {
		t.Fatal("length mismatch should fail")
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

// Property: arbitrary write-request payloads roundtrip through the codec.
func TestWriteCodecProperty(t *testing.T) {
	f := func(ds, idx uint32, data []byte) bool {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		fr, err := EncodeWriteBatch(7, []WriteReq{{DS: ds, Idx: idx, Data: data}})
		var buf bytes.Buffer
		if err != nil || WriteFrame(&buf, fr) != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		reqs, err := DecodeWriteBatch(got.Payload)
		if err != nil || len(reqs) != 1 {
			return false
		}
		req := reqs[0]
		return req.DS == ds && req.Idx == idx && bytes.Equal(req.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
