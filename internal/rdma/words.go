package rdma

import (
	"encoding/binary"
	"math/bits"
)

// Lane-packed words (SchemeWords): the codec for what the far tier mostly
// holds — arrays of 8-byte words carrying small numbers. Such an object
// uses a few adjacent byte lanes of its words and leaves many words zero;
// a byte-oriented match finder spends microseconds rediscovering that,
// word by word. This codec states it once:
//
//	lo:u8 | w:u8 | bitmap[rawLen/64] | popcount(bitmap) × w bytes
//
// lo is the lowest occupied byte lane, w in 1..4 the number of lanes kept
// (lo+w <= 8). Bit j of bitmap byte g is set iff word 8g+j is present;
// each present word follows as (word >> 8·lo) in w little-endian bytes,
// in order. Absent words are zero.
//
// An object is eligible iff its length is a positive multiple of 64 and
// every set bit of every word lies in lanes [lo, lo+w) for some w <= 4.
// The block is then at most WordsBound bytes, always less than the
// object.
//
// A block is valid for rawLen (CheckWords) iff rawLen is a positive
// multiple of 64, the header is in range and
//
//	len(block) == 2 + rawLen/64 + popcount(bitmap)·w.
//
// That equation is the whole validity argument: decoding reads the
// bitmap's rawLen/64 bytes and then exactly w bytes per set bit, so it
// ends on the block's last byte (its four-byte loads run only while 32
// bytes remain, more than a group can consume), and it writes all eight
// words of one 64-byte group per bitmap byte, so it writes every byte of
// dst. Nothing after the check can fail. A
// set bit over a zero word, or lanes wider than the data needs, is legal
// and merely not what PackWords emits.

const wordsHdr = 2 // lo, w

// WordsBound is the size of the largest block PackWords emits for an
// n-byte object, and the room its dst must have.
func WordsBound(n int) int { return wordsHdr + n/64 + n/2 }

// ScanWords classifies an object in one pass, 64 bytes at a time:
//
//	w == 0       every byte is zero (any length, the empty object included)
//	1 <= w <= 4  eligible: PackWords(dst, src, lo, w) applies
//	w < 0        neither
//
// It gives up in the group where the occupied lanes first span more than
// four — the first cache line of noise, text or a full-width word — so
// an object that will not pack costs one line, not a pass.
func ScanWords(src []byte) (lo, w int) {
	var acc uint64
	b := src
	for ; len(b) >= 64; b = b[64:] {
		g := b[:64]
		acc |= binary.LittleEndian.Uint64(g) | binary.LittleEndian.Uint64(g[8:]) |
			binary.LittleEndian.Uint64(g[16:]) | binary.LittleEndian.Uint64(g[24:]) |
			binary.LittleEndian.Uint64(g[32:]) | binary.LittleEndian.Uint64(g[40:]) |
			binary.LittleEndian.Uint64(g[48:]) | binary.LittleEndian.Uint64(g[56:])
		if acc != 0 {
			lo = bits.TrailingZeros64(acc) >> 3
			w = 8 - bits.LeadingZeros64(acc)>>3 - lo
			if w > 4 {
				return 0, -1
			}
		}
	}
	if len(b) > 0 {
		// Not whole groups: only the zero verdict is on offer.
		for _, c := range b {
			acc |= uint64(c)
		}
		if acc != 0 {
			return 0, -1
		}
	}
	return lo, w
}

// PackWords encodes src, which ScanWords found eligible at lanes
// [lo, lo+w), into dst and returns the block's length. dst must have
// room for WordsBound(len(src)) bytes and must not overlap src.
func PackWords(dst, src []byte, lo, w int) int {
	groups := len(src) / 64
	dst[0], dst[1] = byte(lo), byte(w)
	bitmap := dst[wordsHdr : wordsHdr+groups]
	out := wordsHdr + groups
	shift, uw := uint(8*lo), uint(w)
	for g := range bitmap {
		// A group is eight independent words. No branch on any of them:
		// whether a word is zero is a coin toss in the objects this codec
		// is for, and a mispredicted branch costs more than the word.
		// Each stores four bytes whatever it and w are and steps past w
		// of them only if it was non-zero, so the only serial dependency
		// is the running offset; the next store, or nothing, overwrites
		// the rest. A group's stores stay inside the 32 bytes from out,
		// and those inside WordsBound: with k of the 8g words before it
		// kept, out+32 = 2+n/64+k·w+32 <= 2+n/64+(g+1)·32 <= WordsBound(n).
		s, d := (*[64]byte)(src[64*g:]), (*[32]byte)(dst[out:])
		k, n0 := packLanes(d, 0, binary.LittleEndian.Uint64(s[0:]), shift, uw)
		k, n1 := packLanes(d, k, binary.LittleEndian.Uint64(s[8:]), shift, uw)
		k, n2 := packLanes(d, k, binary.LittleEndian.Uint64(s[16:]), shift, uw)
		k, n3 := packLanes(d, k, binary.LittleEndian.Uint64(s[24:]), shift, uw)
		k, n4 := packLanes(d, k, binary.LittleEndian.Uint64(s[32:]), shift, uw)
		k, n5 := packLanes(d, k, binary.LittleEndian.Uint64(s[40:]), shift, uw)
		k, n6 := packLanes(d, k, binary.LittleEndian.Uint64(s[48:]), shift, uw)
		k, n7 := packLanes(d, k, binary.LittleEndian.Uint64(s[56:]), shift, uw)
		bitmap[g] = byte(n0 | n1<<1 | n2<<2 | n3<<3 | n4<<4 | n5<<5 | n6<<6 | n7<<7)
		out += int(k)
	}
	return out
}

// packLanes stores word v's lanes at d[k:] and returns the offset past
// them — k itself when v is zero — and v's bitmap bit.
func packLanes(d *[32]byte, k uint, v uint64, shift, w uint) (uint, uint) {
	binary.LittleEndian.PutUint32(d[k&31:], uint32(v>>shift))
	nz := uint((v | -v) >> 63) // 1 iff v != 0
	return k + w&-nz, nz
}

// CheckWords reports whether block is a valid lane-packed image of a
// rawLen-byte object. It reads the header and the bitmap only.
func CheckWords(block []byte, rawLen int) bool {
	groups := rawLen / 64
	if rawLen <= 0 || rawLen%64 != 0 || len(block) < wordsHdr+groups {
		return false
	}
	lo, w := int(block[0]), int(block[1])
	if w < 1 || w > 4 || lo+w > 8 {
		return false
	}
	bitmap := block[wordsHdr : wordsHdr+groups]
	present := 0
	for ; len(bitmap) >= 8; bitmap = bitmap[8:] {
		present += bits.OnesCount64(binary.LittleEndian.Uint64(bitmap))
	}
	for _, b := range bitmap {
		present += bits.OnesCount8(b)
	}
	return len(block) == wordsHdr+groups+present*w
}

// UnpackWords expands block into dst, which must be exactly the original
// length. A block CheckWords refuses is ErrCorrupt and leaves dst
// untouched; any other fills all of dst.
func UnpackWords(dst, block []byte) error {
	if !CheckWords(block, len(dst)) {
		return ErrCorrupt
	}
	groups := len(dst) / 64
	w := int(block[1])
	shift, uw := uint(8*block[0]), uint(w)
	mask := uint64(1)<<(8*w) - 1
	in := wordsHdr + groups
	for g, present := range block[wordsHdr:in] {
		d := (*[64]byte)(dst[64*g:])
		if in+32 <= len(block) {
			// A group reads at most 32 block bytes: load four for every
			// word, present or not, and mask the absent ones to zero.
			s, p := (*[32]byte)(block[in:]), uint(present)
			k := unpackLanes(d[0:8], s, 0, p, mask, shift, uw)
			k = unpackLanes(d[8:16], s, k, p>>1, mask, shift, uw)
			k = unpackLanes(d[16:24], s, k, p>>2, mask, shift, uw)
			k = unpackLanes(d[24:32], s, k, p>>3, mask, shift, uw)
			k = unpackLanes(d[32:40], s, k, p>>4, mask, shift, uw)
			k = unpackLanes(d[40:48], s, k, p>>5, mask, shift, uw)
			k = unpackLanes(d[48:56], s, k, p>>6, mask, shift, uw)
			k = unpackLanes(d[56:64], s, k, p>>7, mask, shift, uw)
			in += int(k)
			continue
		}
		// The last groups, fewer than 32 block bytes from the end: a
		// four-byte load could read past it, so zero the group and read
		// each present word's w bytes exactly, lowest set bit first.
		clear(d[:])
		for ; present != 0; present &= present - 1 {
			var v uint64
			for k := w - 1; k >= 0; k-- {
				v = v<<8 | uint64(block[in+k])
			}
			in += w
			binary.LittleEndian.PutUint64(d[8*bits.TrailingZeros8(present):], v<<shift)
		}
	}
	return nil
}

// unpackLanes expands the word at s[k:] into d if bit 0 of p is set,
// else zeroes d, and returns the offset of the next word.
func unpackLanes(d []byte, s *[32]byte, k, p uint, mask uint64, shift, w uint) uint {
	p &= 1
	v := uint64(binary.LittleEndian.Uint32(s[k&31:])) & mask & -uint64(p)
	binary.LittleEndian.PutUint64(d, v<<shift)
	return k + w&-p
}
