package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Session handshake. The first frame of every connection is a HELLO
// carrying one self-checked 12-byte record (little endian):
//
//	u32 magic "CRDS" | u16 version | u16 options | u32 crc32c(first 8 bytes)
//
// The server answers OK echoing the record and the session is up —
// every later frame in both directions carries the CRC32-C trailer
// (crc.go), tagged frames carry the trace block when OptTrace was asked
// for (trace.go), and batch segments may come compressed when
// OptCompress was (compact.go). Or it answers ERR —
// its own record followed by a UTF-8 message naming both versions — and
// closes. The exchange itself is plain-framed: it has to be readable
// before anything is agreed, which is why the record checks itself.
//
// There is nothing to intersect: tagged bit-packed batches, checksummed
// framing, the epoch modifier and the chase verbs are the protocol, and
// the two options are the client's to choose. A peer therefore
// either speaks this version or is refused; a record that fails its own
// checksum proves nothing about the peer and is a transport fault like
// any other corrupted frame.

// ProtoVersion is the wire protocol version this package speaks.
// Version 1 was the unversioned feature-bit PING; version 2 still
// carried the fixed-width and epoch verb families beside the bit-packed
// one and a hello option to choose between them; version 3 knew three
// payload schemes and answered the fourth, SchemeWords, with a decode
// error mid-session; version 4 packed SchemeWords in whole byte lanes,
// where version 5 packs them at their bit width.
const ProtoVersion uint16 = 5

// Session options a client may ask for in its hello.
const (
	// OptTrace: every tagged frame carries the fixed trace block.
	OptTrace uint16 = 1 << iota
	// OptCompress: batch segments may be compressed (SchemeLZ, SchemeWords).
	OptCompress

	optMask = OptTrace | OptCompress
)

const helloMagic = 0x53445243 // "CRDS" on the wire

// HelloSize is the size of the hello record.
const HelloSize = 12

// ErrHelloCheck reports a hello record that fails its own magic or
// checksum: corrupted in flight, or not a hello at all.
var ErrHelloCheck = errors.New("rdma: hello record failed its self-check")

// Hello is the decoded handshake record.
type Hello struct {
	Version uint16
	Opts    uint16
}

// Valid reports whether h is a session this package can run: its own
// version and known option bits.
func (h Hello) Valid() bool { return h.Version == ProtoVersion && h.Opts&^optMask == 0 }

// Append appends h's self-checked record to p.
func (h Hello) Append(p []byte) []byte {
	n := len(p)
	p = binary.LittleEndian.AppendUint32(p, helloMagic)
	p = binary.LittleEndian.AppendUint16(p, h.Version)
	p = binary.LittleEndian.AppendUint16(p, h.Opts)
	return binary.LittleEndian.AppendUint32(p, crc32.Checksum(p[n:], castagnoli))
}

// DecodeHello parses the hello record leading p (HELLO and OK payloads
// are exactly the record; an ERR payload appends a message to it).
func DecodeHello(p []byte) (Hello, error) {
	if len(p) < HelloSize {
		return Hello{}, fmt.Errorf("%w (%d bytes)", ErrHelloCheck, len(p))
	}
	if binary.LittleEndian.Uint32(p) != helloMagic ||
		binary.LittleEndian.Uint32(p[8:]) != crc32.Checksum(p[:8], castagnoli) {
		return Hello{}, ErrHelloCheck
	}
	return Hello{
		Version: binary.LittleEndian.Uint16(p[4:]),
		Opts:    binary.LittleEndian.Uint16(p[6:]),
	}, nil
}

// HelloFrame builds the HELLO request (op OpHello) or, with op OpOK, the
// reply echoing it.
func HelloFrame(op Op, h Hello) Frame {
	return Frame{Op: op, Payload: h.Append(make([]byte, 0, HelloSize))}
}

// HelloErrFrame builds the refusal: the refusing side's own record, so
// the peer can tell a checksummed version mismatch from line noise, then
// the message.
func HelloErrFrame(msg string) Frame {
	p := Hello{Version: ProtoVersion}.Append(make([]byte, 0, HelloSize+len(msg)))
	return Frame{Op: OpErr, Payload: append(p, msg...)}
}
