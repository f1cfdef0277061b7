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
// There are seven tagged verbs — READ -> DATA, WRITE -> ACK,
// CHASE -> CHASEDATA, and ERRTAG answering any of the three requests —
// and one modifier: EpochBit on READ, DATA or WRITE adds the
// replication layer's u64 epoch to every tuple. compact.go documents
// the bit-packed batch payloads, chase.go the traversal programs.
package rdma

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// EpochBit modifies OpReadBatchC, OpDataBatchC and OpWriteBatchC: the
// frame is epoch-stamped (see compact.go). It is meaningless on every
// other opcode, and such a frame is refused like any unknown verb.
const EpochBit Op = 0x40

// Tagged opcodes. The values TagBit|0x01..0x04, 0x06..0x0A and 0x10 are
// reserved: protocol versions 1 and 2 used them — READBATCH 0x01 and
// DATABATCH 0x02 (refcodec.go keeps their codec as a benchmark
// yardstick), WRITEBATCH 0x06, ACKBATCH 0x07, WRITEEPOCHBATCH 0x08,
// READEPOCHBATCH 0x09, DATAEPOCHBATCH 0x0A, WRITEEPOCHBATCH-C 0x10. A
// server answers them with ERRTAG and never decodes them.
const (
	// OpErrTag reports failure of the tagged request with the same tag.
	OpErrTag Op = TagBit | 0x05
	// OpChaseBatch carries count traversal programs in one frame (the
	// server-side pointer-chase offload — see chase.go). Answered by one
	// OpChaseData (same tag).
	OpChaseBatch Op = TagBit | 0x0B
	// OpChaseData is the per-program path reply to OpChaseBatch: every
	// object visited plus the terminal status and final address.
	OpChaseData Op = TagBit | 0x0C
	// OpReadBatchC requests count reads in one frame; answered by one
	// OpDataBatchC (same tag, same EpochBit).
	OpReadBatchC Op = TagBit | 0x0D
	// OpDataBatchC is the scatter-gather reply: per-segment compression
	// schemes (and, stamped, stored epochs) ahead of the concatenated
	// blobs, in request order.
	OpDataBatchC Op = TagBit | 0x0E
	// OpWriteBatchC carries count writes in one frame, each either a
	// full object or a dirty-range write (and, stamped, conditional on
	// its epoch). Acked by OpAckBatchC once all have been applied.
	OpWriteBatchC Op = TagBit | 0x0F
	// OpAckBatchC acknowledges a write batch; its payload carries a
	// per-tuple rejected bitmap (stale range bases only).
	OpAckBatchC Op = TagBit | 0x11
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
	case OpErrTag:
		return "ERRTAG"
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
	case OpAckBatchC:
		return "ACKBATCH-C"
	case OpReadBatchC | EpochBit, OpDataBatchC | EpochBit, OpWriteBatchC | EpochBit:
		return (o &^ EpochBit).String() + "+EPOCH"
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

// maxHeader is the longest run of bytes ahead of a payload: header, tag
// and trace block. It is also the scratch one frame read or write needs
// (the CRC trailer reuses it once the header is on its way).
const maxHeader = headerSize + tagSize + traceExtSize

// appendHeader appends f's length prefix, opcode, tag and trace block.
// Everything after the length prefix is what the checksum covers first.
func appendHeader(b []byte, f Frame) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(f.Payload)))
	b = append(b, byte(f.Op))
	if f.Op.Tagged() {
		b = binary.LittleEndian.AppendUint32(b, f.Tag)
		if f.HasExt {
			b = append(b, f.Ext[:]...)
		}
	}
	return b
}

// AppendFrameCRC appends f as it travels on a session — header, payload,
// CRC trailer — to dst: a writer that assembles several frames and sends
// them in one write builds them with this.
func AppendFrameCRC(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = append(appendHeader(dst, f), f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+4:], castagnoli))
}

// WriteFrame encodes and writes one plain frame (the hello exchange).
// Writing through a buffered writer and flushing once per group of frames
// is the doorbell-coalescing path: many frames, one syscall.
func WriteFrame(w io.Writer, f Frame) error { return writeFrame(w, f, false) }

// writeFrame writes f, followed by its CRC trailer when crc is set. A
// frame that fits what a bufio.Writer has free is built in place in that
// space (AvailableBuffer) and costs no scratch at all; anything else goes
// out in pieces behind one pooled header scratch — a stack array would
// escape through the io.Writer call and allocate on every frame.
func writeFrame(w io.Writer, f Frame, crc bool) error {
	if len(f.Payload) > MaxFrame {
		return fmt.Errorf("rdma: frame too large (%d bytes)", len(f.Payload))
	}
	if bw, ok := w.(*bufio.Writer); ok && crc && int(f.WireSize())+crcSize <= bw.Available() {
		_, err := bw.Write(AppendFrameCRC(bw.AvailableBuffer(), f))
		return err
	}
	hdr := appendHeader(GetBuf(maxHeader)[:0], f)
	defer PutBuf(hdr)
	sum := crc32.Update(0, castagnoli, hdr[4:])
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return err
		}
	}
	if !crc {
		return nil
	}
	sum = crc32.Update(sum, castagnoli, f.Payload)
	_, err := w.Write(binary.LittleEndian.AppendUint32(hdr[:0], sum))
	return err
}

// ReadFrame reads and decodes one plain frame (no trailer, no trace
// block) into a heap payload: the handshake exchange, and tests.
func ReadFrame(r io.Reader) (Frame, error) { return ReadFrameOpts(r, false, false) }

// ReadReq is one (ds, idx, size) read tuple.
type ReadReq struct {
	DS, Idx, Size uint32
}

// ErrTagFrame builds a tagged ERR frame so a pipelined peer can route the
// failure to the request with the same tag.
func ErrTagFrame(tag uint32, msg string) Frame {
	return Frame{Op: OpErrTag, Tag: tag, Payload: []byte(msg)}
}
