package rdma

import (
	"errors"
	"hash/crc32"
	"io"
)

// Frame integrity. TCP's 16-bit checksum misses roughly one corrupted
// segment in 65k, and a chaos transport (internal/faultnet) flips bytes
// on purpose — either way a flipped payload byte would silently corrupt
// far-memory objects. Every frame after the hello exchange is therefore
// followed by a u32 CRC32-C (Castagnoli, the polynomial RDMA NICs and
// iSCSI use) computed over the opcode, the tag (when present), the
// trace block (when present) and the payload. The length prefix is not
// summed — a corrupted length desynchronizes the stream, which the
// checksum then catches on the misframed bytes that follow. The hello
// and its reply are plain-framed and check themselves (hello.go).

// ErrCRC reports a checksum mismatch: the frame (and everything after
// it on this stream) cannot be trusted. The only safe recovery is to
// drop the connection and replay idempotent work on a fresh one.
var ErrCRC = errors.New("rdma: frame checksum mismatch")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crcSize is the per-frame overhead of checksummed framing.
const crcSize = 4

// WriteFrameCRC writes one frame followed by its CRC32-C trailer.
func WriteFrameCRC(w io.Writer, f Frame) error { return writeFrame(w, f, true) }
