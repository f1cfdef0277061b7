package rdma

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// A small LZ77 block codec for the compact wire tier (OptCompress).
//
// The format is the classic byte-oriented token stream (LZ4 block
// style): each sequence is a token byte whose high nibble is the
// literal length and low nibble the match length minus lzMinMatch (15
// in either nibble means "add the following 255-continued extension
// bytes"), followed by the literals, then a 2-byte little-endian match
// offset into the already-decoded output. The final sequence carries
// literals only. There is no stream header — the decompressed size
// travels in the compact frame header, so the decompressor fills a
// caller-sized destination exactly.
//
// We hand-roll this instead of using compress/flate because the codec
// sits on the zero-alloc steady-state path: flate allocates its
// encoder/decoder state per use (and is far too slow per 4KB object),
// whereas this compressor's only state is a 32KB hash table recycled
// through a pool, and the decompressor needs none at all. Compression
// strength is secondary — the adaptivity policy in internal/remote only
// engages the codec on DSs whose objects have shown real redundancy.

const (
	lzMinMatch  = 4
	lzTableBits = 12
	lzTableSize = 1 << lzTableBits
	lzMaxOffset = 1 << 16
)

var ErrCorrupt = errors.New("rdma: corrupt compressed block")

var lzTablePool = make(chan *[lzTableSize]int32, 16)

func getLZTable() *[lzTableSize]int32 {
	select {
	case t := <-lzTablePool:
		clear(t[:])
		return t
	default:
		return new([lzTableSize]int32)
	}
}

func putLZTable(t *[lzTableSize]int32) {
	select {
	case lzTablePool <- t:
	default:
	}
}

// CompressBound returns the worst-case compressed size for n input
// bytes; destination buffers for LZCompress must be at least this big.
func CompressBound(n int) int { return n + n/255 + 16 }

func lzHash(v uint32) uint32 {
	return (v * 2654435761) >> (32 - lzTableBits)
}

// LZCompress compresses src into dst and returns the compressed length.
// ok is false when the input is incompressible (output would not be
// smaller than the input) — callers then ship the object raw. dst must
// have room for CompressBound(len(src)) bytes.
func LZCompress(dst, src []byte) (n int, ok bool) {
	if len(src) < 16 || len(dst) < CompressBound(len(src)) {
		return 0, false
	}
	table := getLZTable()
	defer putLZTable(table)

	limit := len(src) - 1 // hard output budget: must beat raw
	var out, anchor, pos int
	end := len(src) - lzMinMatch // last position where a match can start

	for pos < end {
		seq := binary.LittleEndian.Uint32(src[pos:])
		h := lzHash(seq)
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand < 0 || pos-cand >= lzMaxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != seq {
			pos++
			continue
		}
		// Extend the match forward, eight bytes per compare: the first
		// differing byte is the lowest set byte of the XOR. cand < pos, so
		// the bound on pos covers both loads.
		mlen := lzMinMatch
		for pos+mlen+8 <= len(src) {
			x := binary.LittleEndian.Uint64(src[cand+mlen:]) ^ binary.LittleEndian.Uint64(src[pos+mlen:])
			if x != 0 {
				mlen += bits.TrailingZeros64(x) >> 3
				break
			}
			mlen += 8
		}
		for pos+mlen < len(src) && src[cand+mlen] == src[pos+mlen] {
			mlen++
		}
		// Emit literals [anchor,pos) + the match.
		lit := pos - anchor
		need := 1 + lit/255 + lit + 2 + (mlen-lzMinMatch)/255 + 2
		if out+need > limit {
			return 0, false
		}
		tok := out
		out++
		if lit >= 15 {
			dst[tok] = 15 << 4
			out += lzPutExt(dst[out:], lit-15)
		} else {
			dst[tok] = byte(lit) << 4
		}
		out += copy(dst[out:], src[anchor:pos])
		binary.LittleEndian.PutUint16(dst[out:], uint16(pos-cand))
		out += 2
		if m := mlen - lzMinMatch; m >= 15 {
			dst[tok] |= 15
			out += lzPutExt(dst[out:], m-15)
		} else {
			dst[tok] |= byte(m)
		}
		// Seed the table inside the match so runs keep matching.
		step := 1
		if mlen > 64 {
			step = 4
		}
		for p := pos + 1; p < pos+mlen && p < end; p += step {
			table[lzHash(binary.LittleEndian.Uint32(src[p:]))] = int32(p + 1)
		}
		pos += mlen
		anchor = pos
	}
	// Trailing literals.
	lit := len(src) - anchor
	if out+1+lit/255+lit > limit {
		return 0, false
	}
	tok := out
	out++
	if lit >= 15 {
		dst[tok] = 15 << 4
		out += lzPutExt(dst[out:], lit-15)
	} else {
		dst[tok] = byte(lit) << 4
	}
	out += copy(dst[out:], src[anchor:])
	return out, true
}

// lzPutExt writes a 255-continued length extension and returns the
// bytes written.
func lzPutExt(dst []byte, v int) int {
	n := 0
	for v >= 255 {
		dst[n] = 255
		n++
		v -= 255
	}
	dst[n] = byte(v)
	return n + 1
}

// LZDecompress expands src into dst, which must be exactly the original
// length. Every access is bounds-checked against both slices, so
// forged input from the wire fails with ErrCorrupt instead of
// panicking or over-reading.
func LZDecompress(dst, src []byte) error {
	var out, in int
	for {
		if in >= len(src) {
			return ErrCorrupt
		}
		tok := src[in]
		in++
		lit := int(tok >> 4)
		if lit == 15 {
			var err error
			lit, in, err = lzExt(src, in, lit)
			if err != nil {
				return err
			}
		}
		if in+lit > len(src) || out+lit > len(dst) {
			return ErrCorrupt
		}
		copy(dst[out:], src[in:in+lit])
		in += lit
		out += lit
		if in == len(src) {
			// Final literal-only sequence: the token's match nibble
			// must be clear, and output must be complete.
			if tok&15 != 0 || out != len(dst) {
				return ErrCorrupt
			}
			return nil
		}
		if in+2 > len(src) {
			return ErrCorrupt
		}
		off := int(binary.LittleEndian.Uint16(src[in:]))
		in += 2
		mlen := int(tok & 15)
		if mlen == 15 {
			var err error
			mlen, in, err = lzExt(src, in, mlen)
			if err != nil {
				return err
			}
		}
		mlen += lzMinMatch
		if off == 0 || off > out || out+mlen > len(dst) {
			return ErrCorrupt
		}
		// m[:off] is already decoded and m[off:] is the match. Each pass
		// copies the decoded prefix m[:n] onto m[n:]: source and
		// destination never overlap, n stays a multiple of off so the
		// period is preserved, and the checks above keep m inside dst.
		// off >= mlen finishes in one pass; a self-overlapping run
		// (off < mlen) doubles its way there.
		m := dst[out-off : out+mlen]
		for n := off; n < len(m); n *= 2 {
			copy(m[n:], m[:n])
		}
		out += mlen
	}
}

func lzExt(src []byte, in, v int) (int, int, error) {
	for {
		if in >= len(src) {
			return 0, 0, ErrCorrupt
		}
		b := src[in]
		in++
		v += int(b)
		if v > MaxFrame {
			return 0, 0, ErrCorrupt
		}
		if b != 255 {
			return v, in, nil
		}
	}
}

// isAllZero reports whether b contains only zero bytes (the fast path
// for freshly-materialized or cleared objects, which compress to a
// two-bit scheme code and no payload at all).
func isAllZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.LittleEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// IsAllZero reports whether b contains only zero bytes — exported for
// the client-side compression decision, which classifies objects before
// they reach a builder.
func IsAllZero(b []byte) bool { return isAllZero(b) }
