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
// whereas this compressor's only state is a 16 KiB position table
// recycled through a pool and never cleared between uses (see lzTable),
// and the decompressor needs none at all. Compression strength is
// secondary — the adaptivity policy in internal/remote only engages the
// codec on DSs whose objects have shown real redundancy.

const (
	lzMinMatch  = 4
	lzTableBits = 12
	lzTableSize = 1 << lzTableBits
	lzMaxOffset = 1 << 16
	// A run of misses probes every byte for its first 1<<lzSkipTrigger
	// positions, then every second byte for as many probes, and so on:
	// incompressible input is given up on in a few hundred probes.
	lzSkipTrigger = 6
)

var ErrCorrupt = errors.New("rdma: corrupt compressed block")

// lzTable maps a 4-byte hash to base + the input position that last had
// it. base moves past every position of an input once it is compressed,
// so entries left by earlier inputs read as "further back than this
// input starts" and are rejected by the same distance check that
// rejects a too-far candidate: the table is never cleared between uses.
// Only when base would wrap is it cleared and base restarted. base is
// never 0, so a zero entry is behind position 0 too.
type lzTable struct {
	pos  [lzTableSize]uint32
	base uint32
}

var lzTablePool = make(chan *lzTable, 16)

// getLZTable returns a table whose base leaves room for n positions.
func getLZTable(n int) *lzTable {
	var t *lzTable
	select {
	case t = <-lzTablePool:
	default:
		t = &lzTable{base: 1}
	}
	if uint64(t.base)+uint64(n) > 1<<32-1 {
		clear(t.pos[:])
		t.base = 1
	}
	return t
}

func putLZTable(t *lzTable) {
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
//
// The parse is LZ4's fast one: hash the four bytes at pos, look up and
// replace the table entry, and on a miss step ahead by a stride that
// grows with the length of the miss run. A hit is extended forwards
// eight bytes per compare, then backwards over the literals still
// pending (which a stride past 1 may have stepped over). A match inserts
// one position behind its end instead of every byte it covers.
func LZCompress(dst, src []byte) (n int, ok bool) {
	// Nothing larger than a frame ships, and table positions are uint32.
	if len(src) < 16 || len(dst) < CompressBound(len(src)) || len(src) > MaxFrame {
		return 0, false
	}
	t := getLZTable(len(src))
	defer putLZTable(t)
	base := t.base
	t.base += uint32(len(src))
	tab := &t.pos

	limit := len(src) - 1         // hard output budget: must beat raw
	last := len(src) - lzMinMatch // last position a four-byte load fits at
	var out, anchor, pos int
	for {
		// Find a match at or after pos.
		var cand int
		for miss := 1 << lzSkipTrigger; ; miss++ {
			if pos > last {
				return lzFinish(dst, src, out, anchor, limit)
			}
			seq := binary.LittleEndian.Uint32(src[pos:])
			h := lzHash(seq)
			here := base + uint32(pos)
			d := here - tab[h] // distance back to the candidate, across inputs
			tab[h] = here
			if d <= uint32(pos) && d < lzMaxOffset {
				cand = pos - int(d)
				if binary.LittleEndian.Uint32(src[cand:]) == seq {
					break
				}
			}
			pos += miss >> lzSkipTrigger
		}
		// Extend forwards from the four matched bytes, eight bytes per
		// compare: the first differing byte is the lowest set byte of the
		// XOR. cand < pos, so the bound on pos covers both loads.
		mlen := lzMinMatch
		for pos+mlen+8 <= len(src) {
			x := binary.LittleEndian.Uint64(src[cand+mlen:]) ^ binary.LittleEndian.Uint64(src[pos+mlen:])
			if x != 0 {
				mlen += bits.TrailingZeros64(x) >> 3
				goto extended
			}
			mlen += 8
		}
		for pos+mlen < len(src) && src[cand+mlen] == src[pos+mlen] {
			mlen++
		}
	extended:
		// Extend backwards over pending literals.
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
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
		if lit <= 16 && anchor+16 <= len(src) {
			// One 16-byte store for a short run. It may write up to 16 bytes
			// past the literals, which the next stores overwrite; it stays
			// inside dst because out+lit <= limit < len(src), so
			// out+16 < len(src)+16 <= CompressBound(len(src)) <= len(dst).
			copy(dst[out:out+16], src[anchor:anchor+16])
			out += lit
		} else {
			out += copy(dst[out:], src[anchor:pos])
		}
		binary.LittleEndian.PutUint16(dst[out:], uint16(pos-cand))
		out += 2
		if m := mlen - lzMinMatch; m >= 15 {
			dst[tok] |= 15
			out += lzPutExt(dst[out:], m-15)
		} else {
			dst[tok] |= byte(m)
		}
		pos += mlen
		anchor = pos
		// One insert behind the match end, so a repeat of its tail is found.
		if p := pos - 2; p <= last {
			tab[lzHash(binary.LittleEndian.Uint32(src[p:]))] = base + uint32(p)
		}
	}
}

// lzFinish emits the final literal-only sequence src[anchor:].
func lzFinish(dst, src []byte, out, anchor, limit int) (n int, ok bool) {
	lit := len(src) - anchor
	need := 1 + lit
	if lit >= 15 {
		need += (lit-15)/255 + 1
	}
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

// The decoder's fast path takes a sequence whose token carries both
// lengths (neither nibble is 15) when this much of src and dst remains
// past its first byte. Then lit <= 14 and mlen <= 18, and:
//
//   - the 16-byte literal load ends at in+1+16 = in+lzFastIn <= len(src),
//     and the offset's two bytes end at most at in+1+14+2 = in+lzFastIn;
//   - the 16-byte literal store ends at out+16, and the 18-byte match
//     store at out+lit+18 <= out+lzFastOut <= len(dst).
//
// (Go checks each of those slice-to-array conversions besides; the
// bounds are why none of them can fail.)
//
// Since in+1+lit < len(src), the sequence is not the final one, so the
// checked path below would read the same offset and reach the same
// verdict on it; out+mlen <= len(dst) holds by the bound above.
const (
	lzFastIn  = 1 + 16
	lzFastOut = 14 + 18
)

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
		if tok>>4 != 15 && tok&15 != 15 && in+lzFastIn <= len(src) && out+lzFastOut <= len(dst) {
			// One 16-byte literal store. What it writes past out+lit is
			// overwritten by the match, and by later sequences: a stream
			// that decodes fills dst to its end, in order.
			*(*[16]byte)(dst[out:]) = *(*[16]byte)(src[in+1:])
			in += 1 + int(tok>>4)
			out += int(tok >> 4)
			off := int(binary.LittleEndian.Uint16(src[in:]))
			in += 2
			if off == 0 || off > out {
				return ErrCorrupt
			}
			mlen := int(tok&15) + lzMinMatch
			if off >= 8 {
				// An 18-byte store as 8+8+2. Each load ends at most where its
				// own store begins (off >= 8), so it reads only bytes an
				// earlier sequence or an earlier store of this one has
				// already made final; bytes stored past out+mlen are
				// overwritten like the literal overshoot.
				m := dst[out-off : out+18]
				*(*[8]byte)(m[off:]) = *(*[8]byte)(m)
				*(*[8]byte)(m[off+8:]) = *(*[8]byte)(m[8:])
				*(*[2]byte)(m[off+16:]) = *(*[2]byte)(m[16:])
			} else {
				m := dst[out-off : out+mlen]
				for n := off; n < len(m); n *= 2 {
					copy(m[n:], m[:n])
				}
			}
			out += mlen
			continue
		}
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
