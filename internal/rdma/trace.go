package rdma

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Trace extension. A session whose hello asked for OptTrace uses
// extended tagged framing: every tagged frame carries a fixed
// traceExtSize-byte trace block between the tag and the payload. Like
// the tag, the block is never counted in payloadLen, and untagged
// frames never carry it.
//
//	u32 payloadLen | u8 op | u32 tag | 20B trace ext | payload
//
// The block is direction-dependent (both layouts are 20 bytes, little
// endian):
//
//	request:  u64 traceID | u64 spanID  | u32 flags (bit0 = sampled)
//	reply:    u64 recvUS  | u32 queueUS | u32 serviceUS | u32 reserved
//
// The request half carries the client's span context so the server can
// label its spans causally; the reply half carries the server's receive
// timestamp (µs since an arbitrary server epoch) plus two *durations*
// (receive→dispatch and dispatch→complete), which is everything the
// client needs to decompose a round trip into client-queue / on-wire /
// server-queue / server-service without any clock synchronization.
// Frames of an unsampled op carry an all-zero request block: keeping the
// framing fixed-size means readers never branch on content.

// traceExtSize is the fixed size of the trace block.
const traceExtSize = 20

// TraceExtSize exports the trace-block size for wire accounting.
const TraceExtSize = traceExtSize

// SetTraceCtx stamps a request frame's trace block with the issuing
// op's span context and marks the frame extended.
func (f *Frame) SetTraceCtx(traceID, spanID uint64, sampled bool) {
	f.HasExt = true
	binary.LittleEndian.PutUint64(f.Ext[0:], traceID)
	binary.LittleEndian.PutUint64(f.Ext[8:], spanID)
	var flags uint32
	if sampled {
		flags = 1
	}
	binary.LittleEndian.PutUint32(f.Ext[16:], flags)
}

// TraceCtx decodes a request frame's trace block.
func (f *Frame) TraceCtx() (traceID, spanID uint64, sampled bool) {
	traceID = binary.LittleEndian.Uint64(f.Ext[0:])
	spanID = binary.LittleEndian.Uint64(f.Ext[8:])
	sampled = binary.LittleEndian.Uint32(f.Ext[16:])&1 != 0
	return
}

// SetServerStamp stamps a reply frame's trace block with the server's
// receive timestamp (µs since the server's epoch) and the two service
// durations, and marks the frame extended.
func (f *Frame) SetServerStamp(recvUS uint64, queueUS, serviceUS uint32) {
	f.HasExt = true
	binary.LittleEndian.PutUint64(f.Ext[0:], recvUS)
	binary.LittleEndian.PutUint32(f.Ext[8:], queueUS)
	binary.LittleEndian.PutUint32(f.Ext[12:], serviceUS)
	binary.LittleEndian.PutUint32(f.Ext[16:], 0)
}

// ServerStamp decodes a reply frame's trace block.
func (f *Frame) ServerStamp() (recvUS uint64, queueUS, serviceUS uint32) {
	recvUS = binary.LittleEndian.Uint64(f.Ext[0:])
	queueUS = binary.LittleEndian.Uint32(f.Ext[8:])
	serviceUS = binary.LittleEndian.Uint32(f.Ext[12:])
	return
}

// ReadFrameOpts reads one frame under the given framing — crc selects
// the checksum trailer, trace the tagged-frame trace block — into a heap
// payload: tests and stub peers. Like every one-shot reader here it takes
// exactly the frame's bytes from r, so it may be called on a raw
// connection that a FrameReader will own later.
func ReadFrameOpts(r io.Reader, crc, trace bool) (Frame, error) {
	f, err := readFrameOnce(r, crc, trace)
	if err == nil && f.Payload != nil {
		p := append([]byte(nil), f.Payload...)
		PutBuf(f.Payload)
		f.Payload = p
	}
	return f, err
}

// readFrameOnce reads one frame behind a pooled header scratch: a stack
// array would escape through the io.Reader call and allocate per frame.
func readFrameOnce(r io.Reader, crc, trace bool) (Frame, error) {
	hdr := GetBuf(maxHeader)
	defer PutBuf(hdr)
	return readFrame(r, hdr, crc, trace)
}

// FrameReader reads a session's frames (checksummed; trace says whether
// tagged frames carry the trace block) off one connection's buffered
// reader. It owns the header scratch, so a frame costs one pooled buffer:
// its payload. One goroutine uses it at a time.
type FrameReader struct {
	br    *bufio.Reader
	trace bool
	hdr   [maxHeader]byte
}

// NewFrameReader starts reading session frames from br.
func NewFrameReader(br *bufio.Reader, trace bool) *FrameReader {
	return &FrameReader{br: br, trace: trace}
}

// Read returns the next frame. The caller owns f.Payload and should
// PutBuf it once consumed.
func (r *FrameReader) Read() (Frame, error) { return readFrame(r.br, r.hdr[:], true, r.trace) }

// Buffered reports whether the next frame — header, payload and trailer —
// already sits in the buffer, i.e. whether Read returns without touching
// the connection. A loop that owes its peer something (staged replies, a
// fresh read deadline) settles it when this is false, and only then.
func (r *FrameReader) Buffered() bool {
	have := r.br.Buffered()
	if have < headerSize {
		return false
	}
	p, _ := r.br.Peek(headerSize) // cannot fail: the bytes are there
	need := headerSize + crcSize + int(binary.LittleEndian.Uint32(p))
	if Op(p[4]).Tagged() {
		need += tagSize
		if r.trace {
			need += traceExtSize
		}
	}
	return have >= need
}

// readFrame is the one frame reader: every exported variant is this
// behind its own scratch (hdr, at least maxHeader bytes). The payload is
// pooled.
func readFrame(r io.Reader, hdr []byte, crc, trace bool) (Frame, error) {
	if _, err := io.ReadFull(r, hdr[:headerSize]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: oversized frame (%d bytes)", n)
	}
	f := Frame{Op: Op(hdr[4])}
	end := headerSize
	if f.Op.Tagged() {
		if end += tagSize; trace {
			end += traceExtSize
		}
		if _, err := io.ReadFull(r, hdr[headerSize:end]); err != nil {
			return Frame{}, err
		}
		f.Tag = binary.LittleEndian.Uint32(hdr[headerSize:])
		if trace {
			f.HasExt = true
			copy(f.Ext[:], hdr[headerSize+tagSize:end])
		}
	}
	if n > 0 {
		f.Payload = GetBuf(int(n))
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			PutBuf(f.Payload)
			return Frame{}, err
		}
	}
	if crc {
		// hdr[4:end] is exactly what the sum covers ahead of the payload;
		// take it before the trailer reuses the scratch.
		want := crc32.Update(crc32.Update(0, castagnoli, hdr[4:end]), castagnoli, f.Payload)
		if _, err := io.ReadFull(r, hdr[:crcSize]); err != nil {
			PutBuf(f.Payload)
			return Frame{}, err
		}
		if binary.LittleEndian.Uint32(hdr) != want {
			PutBuf(f.Payload)
			return Frame{}, fmt.Errorf("%w (frame %s)", ErrCRC, f.Op)
		}
	}
	return f, nil
}
