package rdma

import (
	"encoding/binary"
	"fmt"
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

// ReadFrameOpts reads one frame under the session's framing: crc
// selects the checksum trailer, trace the tagged-frame trace block.
// The payload is heap-allocated; see ReadFramePooledOpts for the pooled
// variant the data paths use.
func ReadFrameOpts(r io.Reader, crc, trace bool) (Frame, error) {
	f, err := ReadFramePooledOpts(r, crc, trace)
	if err != nil {
		return Frame{}, err
	}
	if f.Payload != nil {
		p := make([]byte, len(f.Payload))
		copy(p, f.Payload)
		PutBuf(f.Payload)
		f.Payload = p
	}
	return f, nil
}

// ReadFramePooledOpts is the session-aware pooled frame reader: crc
// selects checksummed framing, trace the tagged-frame trace block. The
// caller owns f.Payload and should PutBuf it once consumed.
func ReadFramePooledOpts(r io.Reader, crc, trace bool) (Frame, error) {
	// Header scratch from the pool: a stack array would escape through
	// the io.Reader interface call and allocate on every frame.
	hdr := GetBuf(headerSize + tagSize + traceExtSize)
	defer PutBuf(hdr)
	if _, err := io.ReadFull(r, hdr[:headerSize]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: oversized frame (%d bytes)", n)
	}
	f := Frame{Op: Op(hdr[4])}
	if f.Op.Tagged() {
		rest := hdr[headerSize : headerSize+tagSize]
		if trace {
			rest = hdr[headerSize : headerSize+tagSize+traceExtSize]
		}
		if _, err := io.ReadFull(r, rest); err != nil {
			return Frame{}, err
		}
		f.Tag = binary.LittleEndian.Uint32(rest)
		if trace {
			f.HasExt = true
			copy(f.Ext[:], rest[tagSize:])
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
		tr := GetBuf(crcSize)
		defer PutBuf(tr)
		if _, err := io.ReadFull(r, tr); err != nil {
			PutBuf(f.Payload)
			return Frame{}, err
		}
		if got := binary.LittleEndian.Uint32(tr); got != frameCRC(f) {
			PutBuf(f.Payload)
			return Frame{}, fmt.Errorf("%w (frame %s)", ErrCRC, f.Op)
		}
	}
	return f, nil
}
