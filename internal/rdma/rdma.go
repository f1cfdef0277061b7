// Package rdma implements the wire protocol between the CaRDS runtime
// and a remote memory server. The paper's systems run over DPDK/RDMA on
// 25 Gb/s ConnectX-4 NICs; Go has no DPDK path, so this package provides
// the closest portable equivalent: a compact binary framing for
// one-sided-style batched read/write verbs over a reliable byte stream
// (TCP, or net.Pipe in tests). The simulated-time experiments never
// touch this code — they charge the netsim cost model instead — but the
// runtime can run against a real cardsd server through internal/remote,
// which proves the data path end to end.
//
// Frame layout (little endian):
//
//	u32 payloadLen | u8 op | payload                       (control: HELLO, OK, ERR)
//	u32 payloadLen | u8 op | u32 tag | [ext] | payload     (data verbs)
//
// Opcodes with the high bit (TagBit) set carry a u32 tag between the
// opcode and the payload; payloadLen never includes the tag. Tags let
// the client keep many requests in flight and demultiplex completions
// arriving out of order. A connection opens with one plain-framed
// HELLO/OK exchange (hello.go); every frame after it is followed by a
// CRC32-C trailer (crc.go), and on a traced session every tagged frame
// carries a fixed 20-byte trace block (trace.go) where [ext] stands.
//
// Payloads:
//
//	HELLO:      12-byte self-checked hello record          -> OK or ERR
//	OK:         the hello record, echoed
//	ERR:        hello record of the refusing side | utf-8 message
//	READBATCH:  u32 count | count x (u32 ds | u32 idx | u32 size)
//	DATABATCH:  u32 count | count x (u32 len | bytes)      (request order)
//	ERRTAG:     utf-8 message (tagged reply to a failed tagged request)
//	WRITEBATCH: u32 count | count x (u32 ds | u32 idx | u32 len | bytes)
//	ACKBATCH:   u32 count                                  (writes applied)
//	CHASEBATCH: u32 count | count x (u32 ds | u32 start | u32 objSize |
//	            u32 nextOff | u32 hops | u64 mask)         -> CHASEDATA
//	CHASEDATA:  u32 count | count x (u32 status | u64 final | u32 hopCount |
//	            hopCount x (u32 idx | u32 len | bytes))    (request order)
//
// epoch.go and compact.go document the epoch-stamped and compact verbs.
package rdma

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op identifies a frame type.
type Op uint8

// Control opcodes (untagged). The values 1, 2 and 4 are reserved:
// protocol version 1 used them, and a stray frame from such a peer must
// never decode as a live verb.
const (
	// OpHello opens a connection; see hello.go.
	OpHello Op = 3
	OpOK    Op = 5
	OpErr   Op = 6
)

// TagBit marks opcodes whose frames carry a u32 tag after the opcode.
const TagBit Op = 0x80

// Tagged opcodes. TagBit|0x03 and TagBit|0x04 are reserved likewise.
const (
	// OpReadBatch requests count reads in one frame; the reply is one
	// OpDataBatch (same tag) with the payloads in request order.
	OpReadBatch Op = TagBit | 0x01
	// OpDataBatch is the scatter-gather reply to OpReadBatch.
	OpDataBatch Op = TagBit | 0x02
	// OpErrTag reports failure of the tagged request with the same tag.
	OpErrTag Op = TagBit | 0x05
	// OpWriteBatch carries count writes in one frame — the write-side
	// doorbell coalescer. The reply is one OpAckBatch (same tag) once
	// every write in the batch has been applied, in batch order.
	OpWriteBatch Op = TagBit | 0x06
	// OpAckBatch acknowledges a WRITEBATCH; its payload echoes the
	// number of writes applied so the client can detect a torn batch.
	OpAckBatch Op = TagBit | 0x07
	// OpWriteEpochBatch is WRITEBATCH with a u64 epoch stamp per tuple
	// (the replication verbs — see epoch.go). Acked by OpAckBatch.
	OpWriteEpochBatch Op = TagBit | 0x08
	// OpReadEpochBatch is READBATCH whose reply carries each object's
	// stored epoch; answered by OpDataEpochBatch.
	OpReadEpochBatch Op = TagBit | 0x09
	// OpDataEpochBatch is the epoch-stamped scatter-gather reply to
	// OpReadEpochBatch.
	OpDataEpochBatch Op = TagBit | 0x0A
	// OpChaseBatch carries count traversal programs in one frame (the
	// server-side pointer-chase offload — see chase.go). Answered by one
	// OpChaseData (same tag).
	OpChaseBatch Op = TagBit | 0x0B
	// OpChaseData is the per-program path reply to OpChaseBatch: every
	// object visited plus the terminal status and final address.
	OpChaseData Op = TagBit | 0x0C
)

// Tagged reports whether frames with this opcode carry a u32 tag.
func (o Op) Tagged() bool { return o&TagBit != 0 }

func (o Op) String() string {
	switch o {
	case OpHello:
		return "HELLO"
	case OpOK:
		return "OK"
	case OpErr:
		return "ERR"
	case OpReadBatch:
		return "READBATCH"
	case OpDataBatch:
		return "DATABATCH"
	case OpErrTag:
		return "ERRTAG"
	case OpWriteBatch:
		return "WRITEBATCH"
	case OpAckBatch:
		return "ACKBATCH"
	case OpWriteEpochBatch:
		return "WRITEEPOCHBATCH"
	case OpReadEpochBatch:
		return "READEPOCHBATCH"
	case OpDataEpochBatch:
		return "DATAEPOCHBATCH"
	case OpChaseBatch:
		return "CHASEBATCH"
	case OpChaseData:
		return "CHASEDATA"
	case OpReadBatchC:
		return "READBATCH-C"
	case OpDataBatchC:
		return "DATABATCH-C"
	case OpWriteBatchC:
		return "WRITEBATCH-C"
	case OpWriteEpochBatchC:
		return "WRITEEPOCHBATCH-C"
	case OpAckBatchC:
		return "ACKBATCH-C"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// MaxFrame bounds a frame payload (16 MiB), protecting both sides from
// corrupt length prefixes.
const MaxFrame = 16 << 20

// Frame is one decoded protocol message. Tag is meaningful only for
// tagged opcodes (Op.Tagged) and is zero otherwise. HasExt marks a
// tagged frame carrying the fixed trace block of a traced session
// (see trace.go); Ext is its raw bytes, decoded via TraceCtx or
// ServerStamp. Both are value fields so the frame stays allocation-free.
type Frame struct {
	Op      Op
	Tag     uint32
	HasExt  bool
	Ext     [traceExtSize]byte
	Payload []byte
}

// headerSize is the fixed per-frame overhead: u32 length + u8 opcode.
// Tagged opcodes add tagSize more bytes.
const (
	headerSize = 5
	tagSize    = 4
)

// WireSize returns the number of bytes the frame occupies on the wire,
// header included — the unit the transport byte counters account in.
func (f Frame) WireSize() uint64 {
	n := headerSize + uint64(len(f.Payload))
	if f.Op.Tagged() {
		n += tagSize
		if f.HasExt {
			n += traceExtSize
		}
	}
	return n
}

// WriteFrame encodes and writes one frame. Writing through a buffered
// writer and flushing once per group of frames is the doorbell-coalescing
// path: many frames, one syscall.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrame {
		return fmt.Errorf("rdma: frame too large (%d bytes)", len(f.Payload))
	}
	// Pooled scratch: a stack array would escape through the io.Writer
	// interface call, costing one heap allocation per frame.
	hdr := GetBuf(headerSize + tagSize + traceExtSize)
	defer PutBuf(hdr)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(f.Payload)))
	hdr[4] = byte(f.Op)
	n := headerSize
	if f.Op.Tagged() {
		binary.LittleEndian.PutUint32(hdr[headerSize:], f.Tag)
		n += tagSize
		if f.HasExt {
			n += copy(hdr[n:], f.Ext[:])
		}
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads and decodes one plain frame (no trailer, no trace
// block) into a heap payload: the handshake exchange, and tests.
func ReadFrame(r io.Reader) (Frame, error) { return ReadFrameOpts(r, false, false) }

// ReadReq is one (ds, idx, size) read tuple.
type ReadReq struct {
	DS, Idx, Size uint32
}

// WriteReq is one full-object write tuple.
type WriteReq struct {
	DS, Idx uint32
	Data    []byte
}

// ErrTagFrame builds a tagged ERR frame so a pipelined peer can route the
// failure to the request with the same tag.
func ErrTagFrame(tag uint32, msg string) Frame {
	return Frame{Op: OpErrTag, Tag: tag, Payload: []byte(msg)}
}

// readReqSize is the wire size of one (ds, idx, size) read tuple.
const readReqSize = 12

// EncodeReadBatch builds a READBATCH frame for the given tuples.
func EncodeReadBatch(tag uint32, reqs []ReadReq) Frame {
	p := make([]byte, 4+readReqSize*len(reqs))
	binary.LittleEndian.PutUint32(p[0:], uint32(len(reqs)))
	for i, r := range reqs {
		off := 4 + i*readReqSize
		binary.LittleEndian.PutUint32(p[off:], r.DS)
		binary.LittleEndian.PutUint32(p[off+4:], r.Idx)
		binary.LittleEndian.PutUint32(p[off+8:], r.Size)
	}
	return Frame{Op: OpReadBatch, Tag: tag, Payload: p}
}

// DecodeReadBatch parses a READBATCH payload.
func DecodeReadBatch(p []byte) ([]ReadReq, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad READBATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	if uint64(len(p)) != 4+uint64(count)*readReqSize {
		return nil, fmt.Errorf("rdma: READBATCH length mismatch: header %d tuples, payload %d bytes",
			count, len(p))
	}
	reqs := make([]ReadReq, count)
	for i := range reqs {
		off := 4 + i*readReqSize
		reqs[i] = ReadReq{
			DS:   binary.LittleEndian.Uint32(p[off:]),
			Idx:  binary.LittleEndian.Uint32(p[off+4:]),
			Size: binary.LittleEndian.Uint32(p[off+8:]),
		}
	}
	return reqs, nil
}

// DataBatchSize returns the DATABATCH payload size replying to reqs —
// the value both sides bound against MaxFrame before building a batch.
func DataBatchSize(reqs []ReadReq) int {
	n := 4
	for _, r := range reqs {
		n += 4 + int(r.Size)
	}
	return n
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

// DecodeDataBatch parses a DATABATCH payload into per-request segments
// (subslices of p — valid while p is).
func DecodeDataBatch(p []byte) ([][]byte, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad DATABATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	// Each segment needs at least its u32 length prefix; a count beyond
	// that is a forged header — reject before sizing the allocation by it.
	if uint64(count) > uint64(len(p)-4)/4 {
		return nil, fmt.Errorf("rdma: DATABATCH count %d exceeds payload", count)
	}
	segs := make([][]byte, 0, count)
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

// writeReqHdrSize is the fixed prefix of one WRITEBATCH tuple:
// u32 ds | u32 idx | u32 len.
const writeReqHdrSize = 12

// WriteBatchSize returns the WRITEBATCH payload size for reqs — the
// value the flusher bounds against MaxFrame before closing a batch.
func WriteBatchSize(reqs []WriteReq) int {
	n := 4
	for _, r := range reqs {
		n += writeReqHdrSize + len(r.Data)
	}
	return n
}

// EncodeWriteBatch builds a WRITEBATCH frame for the given tuples. The
// payload is the tuples concatenated behind a count.
func EncodeWriteBatch(tag uint32, reqs []WriteReq) (Frame, error) {
	n := WriteBatchSize(reqs)
	if n > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: WRITEBATCH too large (%d bytes)", n)
	}
	p := make([]byte, n)
	encodeWriteBatchInto(p, reqs)
	return Frame{Op: OpWriteBatch, Tag: tag, Payload: p}, nil
}

func encodeWriteBatchInto(p []byte, reqs []WriteReq) {
	binary.LittleEndian.PutUint32(p[0:], uint32(len(reqs)))
	off := 4
	for _, r := range reqs {
		binary.LittleEndian.PutUint32(p[off:], r.DS)
		binary.LittleEndian.PutUint32(p[off+4:], r.Idx)
		binary.LittleEndian.PutUint32(p[off+8:], uint32(len(r.Data)))
		off += writeReqHdrSize
		copy(p[off:], r.Data)
		off += len(r.Data)
	}
}

// DecodeWriteBatch parses a WRITEBATCH payload into per-write requests
// (Data fields are subslices of p — valid while p is).
func DecodeWriteBatch(p []byte) ([]WriteReq, error) {
	return DecodeWriteBatchInto(p, nil)
}

// DecodeWriteBatchInto is DecodeWriteBatch appending into a caller-owned
// slice, letting a steady-state server reuse one across batches.
func DecodeWriteBatchInto(p []byte, reqs []WriteReq) ([]WriteReq, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("rdma: bad WRITEBATCH payload length %d", len(p))
	}
	count := binary.LittleEndian.Uint32(p)
	// Each tuple needs at least its fixed header; a count beyond that is
	// a forged header — reject before sizing any allocation by it.
	if uint64(count) > uint64(len(p)-4)/writeReqHdrSize {
		return nil, fmt.Errorf("rdma: WRITEBATCH count %d exceeds payload", count)
	}
	reqs = reqs[:0]
	off := 4
	for i := uint32(0); i < count; i++ {
		if off+writeReqHdrSize > len(p) {
			return nil, fmt.Errorf("rdma: truncated WRITEBATCH at tuple %d", i)
		}
		n := int(binary.LittleEndian.Uint32(p[off+8:]))
		r := WriteReq{
			DS:  binary.LittleEndian.Uint32(p[off:]),
			Idx: binary.LittleEndian.Uint32(p[off+4:]),
		}
		off += writeReqHdrSize
		if n < 0 || off+n > len(p) {
			return nil, fmt.Errorf("rdma: truncated WRITEBATCH tuple %d (%d bytes)", i, n)
		}
		r.Data = p[off : off+n]
		off += n
		reqs = append(reqs, r)
	}
	if off != len(p) {
		return nil, fmt.Errorf("rdma: WRITEBATCH trailing garbage (%d bytes)", len(p)-off)
	}
	return reqs, nil
}

// EncodeAckBatch builds the ACKBATCH reply to a WRITEBATCH of count
// writes.
func EncodeAckBatch(tag uint32, count int) Frame {
	p := make([]byte, 4)
	binary.LittleEndian.PutUint32(p, uint32(count))
	return Frame{Op: OpAckBatch, Tag: tag, Payload: p}
}

// DecodeAckBatch parses an ACKBATCH payload.
func DecodeAckBatch(p []byte) (int, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("rdma: bad ACKBATCH payload length %d", len(p))
	}
	return int(binary.LittleEndian.Uint32(p)), nil
}
