package rdma

import (
	"encoding/binary"
	"fmt"
)

// Epoch-stamped verbs. The replication layer versions every object
// with a monotonically increasing u64 epoch so a backup can tell a
// stale image from a current one without comparing bytes. The verbs mirror the batch verbs exactly — same doorbell
// coalescing, same tag demux — with the epoch spliced into each tuple:
//
//	WRITEEPOCHBATCH: u32 count | count x (u32 ds | u32 idx | u64 epoch | u32 len | bytes)
//	                 -> ACKBATCH (same tag)
//	READEPOCHBATCH:  u32 count | count x (u32 ds | u32 idx | u32 size)
//	                 -> DATAEPOCHBATCH (same tag)
//	DATAEPOCHBATCH:  u32 count | count x (u64 epoch | u32 len | bytes)
//
// A READEPOCHBATCH payload is byte-identical to READBATCH — only the
// opcode (and therefore the reply shape) differs.

// WriteEpochReq is one epoch-stamped write tuple.
type WriteEpochReq struct {
	DS, Idx uint32
	Epoch   uint64
	Data    []byte
}

// EpochSeg is one segment of a DATAEPOCHBATCH reply: the stored epoch
// and the object bytes. A missing object decodes as Epoch 0 with empty
// Data.
type EpochSeg struct {
	Epoch uint64
	Data  []byte
}

// writeEpochReqHdrSize is the fixed prefix of one WRITEEPOCHBATCH
// tuple: u32 ds | u32 idx | u64 epoch | u32 len.
const writeEpochReqHdrSize = 20

// epochSegHdrSize is the fixed prefix of one DATAEPOCHBATCH segment:
// u64 epoch | u32 len.
const epochSegHdrSize = 12

// WriteEpochBatchSize returns the WRITEEPOCHBATCH payload size for
// reqs — the value the flusher bounds against MaxFrame before closing
// a batch.
func WriteEpochBatchSize(reqs []WriteEpochReq) int {
	n := 4
	for _, r := range reqs {
		n += writeEpochReqHdrSize + len(r.Data)
	}
	return n
}

// EncodeWriteEpochBatch builds a WRITEEPOCHBATCH frame.
func EncodeWriteEpochBatch(tag uint32, reqs []WriteEpochReq) (Frame, error) {
	n := WriteEpochBatchSize(reqs)
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: WRITEEPOCHBATCH too large (%d bytes)", n)
	}
	p := make([]byte, n)
	encodeWriteEpochBatchInto(p, reqs)
	return Frame{Op: OpWriteEpochBatch, Tag: tag, Payload: p}, nil
}

// EncodeWriteEpochBatchPooled is EncodeWriteEpochBatch with a pooled
// payload; the caller should PutBuf it after the frame is written.
func EncodeWriteEpochBatchPooled(tag uint32, reqs []WriteEpochReq) (Frame, error) {
	n := WriteEpochBatchSize(reqs)
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: WRITEEPOCHBATCH too large (%d bytes)", n)
	}
	p := GetBuf(n)
	encodeWriteEpochBatchInto(p, reqs)
	return Frame{Op: OpWriteEpochBatch, Tag: tag, Payload: p}, nil
}

func encodeWriteEpochBatchInto(p []byte, reqs []WriteEpochReq) {
	binary.LittleEndian.PutUint32(p[0:], uint32(len(reqs)))
	off := 4
	for _, r := range reqs {
		binary.LittleEndian.PutUint32(p[off:], r.DS)
		binary.LittleEndian.PutUint32(p[off+4:], r.Idx)
		binary.LittleEndian.PutUint64(p[off+8:], r.Epoch)
		binary.LittleEndian.PutUint32(p[off+16:], uint32(len(r.Data)))
		off += writeEpochReqHdrSize
		copy(p[off:], r.Data)
		off += len(r.Data)
	}
}

// DecodeWriteEpochBatch parses a WRITEEPOCHBATCH payload (Data fields
// are subslices of p — valid while p is).
func DecodeWriteEpochBatch(p []byte) ([]WriteEpochReq, error) {
	return DecodeWriteEpochBatchInto(p, nil)
}

// DecodeWriteEpochBatchInto is DecodeWriteEpochBatch appending into a
// caller-owned slice, letting a steady-state server reuse one across
// batches.
func DecodeWriteEpochBatchInto(p []byte, reqs []WriteEpochReq) ([]WriteEpochReq, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad WRITEEPOCHBATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	// Each tuple needs at least its fixed header; a count beyond that is
	// a forged header — reject before sizing any allocation by it.
	if uint64(count) > uint64(len(p)-4)/writeEpochReqHdrSize {
		return nil, fmt.Errorf("rdma: WRITEEPOCHBATCH count %d exceeds payload", count)
	}
	reqs = reqs[:0]
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+writeEpochReqHdrSize > len(p) {
			return nil, fmt.Errorf("rdma: truncated WRITEEPOCHBATCH at tuple %d", i)
		}
		n := int(binary.LittleEndian.Uint32(p[off+16:]))
		r := WriteEpochReq{
			DS:    binary.LittleEndian.Uint32(p[off:]),
			Idx:   binary.LittleEndian.Uint32(p[off+4:]),
			Epoch: binary.LittleEndian.Uint64(p[off+8:]),
		}
		off += writeEpochReqHdrSize
		if n < 0 || off+n > len(p) {
			return nil, fmt.Errorf("rdma: truncated WRITEEPOCHBATCH tuple %d (%d bytes)", i, n)
		}
		r.Data = p[off : off+n]
		off += n
		reqs = append(reqs, r)
	}
	if off != len(p) {
		return nil, fmt.Errorf("rdma: WRITEEPOCHBATCH trailing garbage (%d bytes)", len(p)-off)
	}
	return reqs, nil
}

// EncodeReadEpochBatch builds a READEPOCHBATCH frame — READBATCH
// tuples under the epoch-reply opcode.
func EncodeReadEpochBatch(tag uint32, reqs []ReadReq) Frame {
	f := EncodeReadBatch(tag, reqs)
	f.Op = OpReadEpochBatch
	return f
}

// EncodeReadEpochBatchPooled is EncodeReadEpochBatch with the payload
// drawn from the pool; the caller should PutBuf it after the frame is
// written.
func EncodeReadEpochBatchPooled(tag uint32, reqs []ReadReq) Frame {
	f := EncodeReadBatchPooled(tag, reqs)
	f.Op = OpReadEpochBatch
	return f
}

// DecodeReadEpochBatch parses a READEPOCHBATCH payload.
func DecodeReadEpochBatch(p []byte) ([]ReadReq, error) { return DecodeReadBatch(p) }

// DecodeReadEpochBatchInto is DecodeReadEpochBatch appending into a
// caller-owned slice.
func DecodeReadEpochBatchInto(p []byte, reqs []ReadReq) ([]ReadReq, error) {
	return DecodeReadBatchInto(p, reqs)
}

// DataEpochBatchSize returns the DATAEPOCHBATCH payload size replying
// to reqs — the value both sides bound against MaxFrame before
// building a batch.
func DataEpochBatchSize(reqs []ReadReq) int {
	n := 4
	for _, r := range reqs {
		n += epochSegHdrSize + int(r.Size)
	}
	return n
}

// EncodeDataEpochBatch builds the epoch-stamped scatter-gather reply.
// Segments must be in request order.
func EncodeDataEpochBatch(tag uint32, segs []EpochSeg) (Frame, error) {
	n := 4
	for _, s := range segs {
		n += epochSegHdrSize + len(s.Data)
	}
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: DATAEPOCHBATCH too large (%d bytes)", n)
	}
	p := make([]byte, n)
	w := BeginDataEpochBatch(p, len(segs))
	for _, s := range segs {
		copy(w.Next(s.Epoch, len(s.Data)), s.Data)
	}
	return w.Frame(tag), nil
}

// DecodeDataEpochBatch parses a DATAEPOCHBATCH payload into segments
// (Data fields are subslices of p — valid while p is).
func DecodeDataEpochBatch(p []byte) ([]EpochSeg, error) {
	return DecodeDataEpochBatchInto(p, nil)
}

// DecodeDataEpochBatchInto is DecodeDataEpochBatch appending into a
// caller-owned slice.
func DecodeDataEpochBatchInto(p []byte, segs []EpochSeg) ([]EpochSeg, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad DATAEPOCHBATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	if uint64(count) > uint64(len(p)-4)/epochSegHdrSize {
		return nil, fmt.Errorf("rdma: DATAEPOCHBATCH count %d exceeds payload", count)
	}
	segs = segs[:0]
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+epochSegHdrSize > len(p) {
			return nil, fmt.Errorf("rdma: truncated DATAEPOCHBATCH at segment %d", i)
		}
		epoch := binary.LittleEndian.Uint64(p[off:])
		n := int(binary.LittleEndian.Uint32(p[off+8:]))
		off += epochSegHdrSize
		if n < 0 || off+n > len(p) {
			return nil, fmt.Errorf("rdma: truncated DATAEPOCHBATCH segment %d (%d bytes)", i, n)
		}
		segs = append(segs, EpochSeg{Epoch: epoch, Data: p[off : off+n]})
		off += n
	}
	if off != len(p) {
		return nil, fmt.Errorf("rdma: DATAEPOCHBATCH trailing garbage (%d bytes)", len(p)-off)
	}
	return segs, nil
}

// DataEpochBatchWriter assembles a DATAEPOCHBATCH payload in place,
// letting the server gather each object read directly into the
// (typically pooled) reply buffer.
type DataEpochBatchWriter struct {
	p   []byte
	off int
	hdr int // offset of the most recently reserved segment's epoch stamp
}

// BeginDataEpochBatch starts a batch of count segments over p, which
// must hold exactly DataEpochBatchSize of the requests being answered.
func BeginDataEpochBatch(p []byte, count int) DataEpochBatchWriter {
	binary.LittleEndian.PutUint32(p[0:], uint32(count))
	return DataEpochBatchWriter{p: p, off: 4}
}

// Next reserves the next segment's n-byte slot under the given epoch
// stamp and returns it for the caller to fill.
func (w *DataEpochBatchWriter) Next(epoch uint64, n int) []byte {
	binary.LittleEndian.PutUint64(w.p[w.off:], epoch)
	binary.LittleEndian.PutUint32(w.p[w.off+8:], uint32(n))
	w.off += epochSegHdrSize
	s := w.p[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// NextDeferred reserves the next segment's n-byte slot with the epoch
// left to be stamped afterwards via StampEpoch — the server's gather
// path learns the stamp only while copying under the store lock.
func (w *DataEpochBatchWriter) NextDeferred(n int) []byte {
	w.hdr = w.off
	binary.LittleEndian.PutUint32(w.p[w.off+8:], uint32(n))
	w.off += epochSegHdrSize
	s := w.p[w.off : w.off+n : w.off+n]
	w.off += n
	return s
}

// StampEpoch stamps the epoch of the segment most recently reserved by
// NextDeferred.
func (w *DataEpochBatchWriter) StampEpoch(epoch uint64) {
	binary.LittleEndian.PutUint64(w.p[w.hdr:], epoch)
}

// Frame returns the assembled DATAEPOCHBATCH frame.
func (w *DataEpochBatchWriter) Frame(tag uint32) Frame {
	return Frame{Op: OpDataEpochBatch, Tag: tag, Payload: w.p[:w.off]}
}
