package rdma

import (
	"encoding/binary"
	"fmt"
)

// Reference codec, no session speaks it. These are the fixed-width
// READBATCH / DATABATCH encodings of protocol versions 1 and 2, kept
// only as the yardstick benchmark/ladder.go measures the bit-packed
// encoding against. Their opcodes are reserved on the wire: a server
// answers either with ERRTAG and never decodes it.
//
//	READBATCH:  u32 count | count x (u32 ds | u32 idx | u32 size)
//	DATABATCH:  u32 count | count x (u32 len | bytes)      (request order)
const (
	OpReadBatch Op = TagBit | 0x01
	OpDataBatch Op = TagBit | 0x02
)

// readReqSize is the wire size of one (ds, idx, size) read tuple.
const readReqSize = 12

// EncodeReadBatchPooled builds a READBATCH frame with the payload drawn
// from the pool; the caller should PutBuf it after the frame is written.
func EncodeReadBatchPooled(tag uint32, reqs []ReadReq) Frame {
	p := GetBuf(4 + readReqSize*len(reqs))
	binary.LittleEndian.PutUint32(p[0:], uint32(len(reqs)))
	for i, r := range reqs {
		off := 4 + i*readReqSize
		binary.LittleEndian.PutUint32(p[off:], r.DS)
		binary.LittleEndian.PutUint32(p[off+4:], r.Idx)
		binary.LittleEndian.PutUint32(p[off+8:], r.Size)
	}
	return Frame{Op: OpReadBatch, Tag: tag, Payload: p}
}

// EncodeDataBatch builds the scatter-gather DATABATCH reply. Segments
// must be in request order.
func EncodeDataBatch(tag uint32, segs [][]byte) (Frame, error) {
	n := 4
	for _, s := range segs {
		n += 4 + len(s)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: DATABATCH too large (%d bytes)", n)
	}
	p := make([]byte, n)
	binary.LittleEndian.PutUint32(p[0:], uint32(len(segs)))
	off := 4
	for _, s := range segs {
		binary.LittleEndian.PutUint32(p[off:], uint32(len(s)))
		off += 4
		copy(p[off:], s)
		off += len(s)
	}
	return Frame{Op: OpDataBatch, Tag: tag, Payload: p}, nil
}

// DecodeDataBatchInto parses a DATABATCH payload into per-request
// segments (subslices of p — valid while p is), appending into a
// caller-owned slice.
func DecodeDataBatchInto(p []byte, segs [][]byte) ([][]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad DATABATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	// Each segment needs at least its u32 length prefix; a count beyond
	// that is a forged header — reject before sizing anything by it.
	if uint64(count) > uint64(len(p)-4)/4 {
		return nil, fmt.Errorf("rdma: DATABATCH count %d exceeds payload", count)
	}
	segs = segs[:0]
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+4 > len(p) {
			return nil, fmt.Errorf("rdma: truncated DATABATCH at segment %d", i)
		}
		n := int(binary.LittleEndian.Uint32(p[off:]))
		off += 4
		if off+n > len(p) {
			return nil, fmt.Errorf("rdma: truncated DATABATCH segment %d (%d bytes)", i, n)
		}
		segs = append(segs, p[off:off+n])
		off += n
	}
	if off != len(p) {
		return nil, fmt.Errorf("rdma: DATABATCH trailing garbage (%d bytes)", len(p)-off)
	}
	return segs, nil
}
