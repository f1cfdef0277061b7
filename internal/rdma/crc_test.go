package rdma

import (
	"bytes"
	"errors"
	"testing"
)

func TestCRCRoundTrip(t *testing.T) {
	frames := []Frame{
		{Op: OpOK},
		{Op: OpErr, Payload: []byte{1, 2, 3}},
		{Op: OpReadBatchC | EpochBit, Tag: 99, Payload: []byte{4, 5}},
		{Op: OpErrTag, Tag: 7},
	}
	var wire []byte
	for _, f := range frames {
		wire = append(wire, sessionBytes(t, f)...)
	}
	rd := newSessionReaders(t, wire, false)
	for i, want := range frames {
		got, err := rd.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Op != want.Op || got.Tag != want.Tag || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d = %+v, want %+v", i, got, want)
		}
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	f := Frame{Op: OpWriteBatchC, Tag: 3, Payload: bytes.Repeat([]byte{0xAA}, 64)}
	wire := sessionBytes(t, f)
	// Flip each byte after the length prefix in turn: every flip must be
	// caught (payload, opcode, tag, and the trailer itself).
	for pos := 4; pos < len(wire); pos++ {
		bad := make([]byte, len(wire))
		copy(bad, wire)
		bad[pos] ^= 0x10
		_, err := newSessionReaders(t, bad, false).next()
		if !errors.Is(err, ErrCRC) {
			t.Fatalf("flip at %d: err = %v, want ErrCRC", pos, err)
		}
	}
}

func TestCRCDetectsTruncatedTrailer(t *testing.T) {
	wire := sessionBytes(t, Frame{Op: OpOK})
	if _, err := newSessionReaders(t, wire[:len(wire)-2], false).next(); err == nil {
		t.Fatal("truncated trailer should fail")
	}
}
