package rdma

import (
	"encoding/binary"
	"math/bits"
)

// Bit-packed words (SchemeWords): the codec for what the far tier mostly
// holds — arrays of 8-byte words carrying small numbers. Such an object
// uses a few low bits of its words and leaves many words zero; a
// byte-oriented match finder spends microseconds rediscovering that, word
// by word. This codec states it once:
//
//	s:u8 | w:u8 | bitmap[rawLen/64] | popcount(bitmap) × w bits
//
// s is the lowest set bit of the OR of all words, w in 1..32 the number of
// bits kept above it (s+w <= 64). Bit j of bitmap byte g is set iff word
// 8g+j is present; each present word follows as the w bits of
// (word >> s), in order, in one little-endian LSB-first bit stream padded
// to a whole byte. Absent words are zero.
//
// An object is eligible iff its length is a positive multiple of 64 and
// every set bit of every word lies in one window of four adjacent byte
// lanes. Then w <= 32, so the block never outgrows whole lanes: it is at
// most 2 + n/64 + popcount·4 bytes, always less than the object.
//
// A block is valid for rawLen (CheckWords) iff rawLen is a positive
// multiple of 64, 1 <= w <= 32, s+w <= 64 and
//
//	len(block) == 2 + rawLen/64 + ceil(popcount(bitmap)·w / 8).
//
// That equation is the whole validity argument: decoding reads the
// bitmap's rawLen/64 bytes and then exactly w bits per set bit, so it ends
// in the block's last byte (its eight-byte loads run only while 40 bytes
// remain, more than a group can reach; the last groups load from a
// zero-padded copy), and it writes all eight words of one 64-byte group
// per bitmap byte, so it writes every byte of dst. Nothing after the check
// can fail. A set bit over a zero word, a w wider than the data needs, or
// set padding bits are legal and merely not what PackWords emits.

const wordsHdr = 2 // s, w

// wordsWin is how far past a group's first stream byte its kernels may
// touch: eight words of at most 32 bits after up to 7 pending bits put the
// last eight-byte store or load at byte 28, and k&31 indexing needs 39.
const wordsWin = 40

// WordsBound is the room PackWords' dst must have for an n-byte object:
// the largest block, 2 + n/64 + n/2 bytes, and 8 bytes past it that the
// unconditional stores of the last group may write.
func WordsBound(n int) int { return wordsHdr + n/64 + n/2 + 8 }

// ScanWords classifies an object in one pass, 64 bytes at a time:
//
//	w == 0        every byte is zero (any length, the empty object included)
//	1 <= w <= 32  eligible: PackWords(dst, src, s, w) applies
//	w < 0         neither
//
// It gives up in the group where the occupied byte lanes first span more
// than four — the first cache line of noise, text or a full-width word —
// so an object that will not pack costs one line, not a pass.
func ScanWords(src []byte) (s, w int) {
	var acc uint64
	b := src
	for ; len(b) >= 64; b = b[64:] {
		g := b[:64]
		acc |= binary.LittleEndian.Uint64(g) | binary.LittleEndian.Uint64(g[8:]) |
			binary.LittleEndian.Uint64(g[16:]) | binary.LittleEndian.Uint64(g[24:]) |
			binary.LittleEndian.Uint64(g[32:]) | binary.LittleEndian.Uint64(g[40:]) |
			binary.LittleEndian.Uint64(g[48:]) | binary.LittleEndian.Uint64(g[56:])
		if acc != 0 && bits.LeadingZeros64(acc)>>3+bits.TrailingZeros64(acc)>>3 < 4 {
			return 0, -1
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
	if acc == 0 {
		return 0, 0
	}
	s = bits.TrailingZeros64(acc)
	return s, 64 - bits.LeadingZeros64(acc) - s
}

// PackWords encodes src, which ScanWords found eligible at (s, w), into
// dst and returns the block's length. dst must have room for
// WordsBound(len(src)) bytes and must not overlap src.
func PackWords(dst, src []byte, s, w int) int {
	groups := len(src) / 64
	dst[0], dst[1] = byte(s), byte(w)
	bitmap := dst[wordsHdr : wordsHdr+groups]
	out := wordsHdr + groups
	uw := uint(w)
	var acc uint64 // the stream's bits from byte out on: fewer than 8
	var nb uint    // how many
	for g := range bitmap {
		// A group is eight independent words. No branch on any of them:
		// whether a word is zero is a coin toss in the objects this codec
		// is for, and a mispredicted branch costs more than the word. Each
		// ORs its bits into acc — nothing when it is zero — stores eight
		// bytes whatever they hold and steps past the whole bytes it
		// completed, so the next store rewrites the partial one. A group's
		// stores stay inside wordsWin bytes from out, and those inside
		// WordsBound: out+wordsWin <= 2+n/64+32g+40 <= WordsBound(n).
		sg, d := (*[64]byte)(src[64*g:]), (*[wordsWin]byte)(dst[out:])
		var k, p uint
		k, acc, nb, p = packWord(d, k, acc, nb, p, 0, binary.LittleEndian.Uint64(sg[0:]), s, uw)
		k, acc, nb, p = packWord(d, k, acc, nb, p, 1, binary.LittleEndian.Uint64(sg[8:]), s, uw)
		k, acc, nb, p = packWord(d, k, acc, nb, p, 2, binary.LittleEndian.Uint64(sg[16:]), s, uw)
		k, acc, nb, p = packWord(d, k, acc, nb, p, 3, binary.LittleEndian.Uint64(sg[24:]), s, uw)
		k, acc, nb, p = packWord(d, k, acc, nb, p, 4, binary.LittleEndian.Uint64(sg[32:]), s, uw)
		k, acc, nb, p = packWord(d, k, acc, nb, p, 5, binary.LittleEndian.Uint64(sg[40:]), s, uw)
		k, acc, nb, p = packWord(d, k, acc, nb, p, 6, binary.LittleEndian.Uint64(sg[48:]), s, uw)
		k, acc, nb, p = packWord(d, k, acc, nb, p, 7, binary.LittleEndian.Uint64(sg[56:]), s, uw)
		bitmap[g] = byte(p)
		out += int(k)
	}
	return out + int(nb+7)>>3
}

// packWord ORs word v's w bits — none when v is zero — into the stream
// at d[k:], nb bits in, stores eight bytes there and returns where the
// stream's partial byte now is, the bits pending in it, and p with v's
// bitmap bit j. v's bits sit at [s, s+w), so one rotate moves them to
// [nb, nb+w) and nothing else with them; nb < 8 and w <= 32 keep acc
// under 40 bits.
func packWord(d *[wordsWin]byte, k uint, acc uint64, nb, p, j uint, v uint64, s int, w uint) (uint, uint64, uint, uint) {
	m := uint(int64(v|-v) >> 63) // all ones iff v != 0
	acc |= bits.RotateLeft64(v, int(nb)-s)
	binary.LittleEndian.PutUint64(d[k&31:k&31+8:k&31+8], acc)
	nb += w & m
	return k + nb>>3, acc >> (nb & 56), nb & 7, p | m&(1<<j)
}

// CheckWords reports whether block is a valid bit-packed image of a
// rawLen-byte object. It reads the header and the bitmap only.
func CheckWords(block []byte, rawLen int) bool {
	groups := rawLen / 64
	if rawLen <= 0 || rawLen%64 != 0 || len(block) < wordsHdr+groups {
		return false
	}
	s, w := int(block[0]), int(block[1])
	if w < 1 || w > 32 || s+w > 64 {
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
	return len(block) == wordsHdr+groups+(present*w+7)/8
}

// UnpackWords expands block into dst, which must be exactly the original
// length. A block CheckWords refuses is ErrCorrupt and leaves dst
// untouched; any other fills all of dst.
func UnpackWords(dst, block []byte) error {
	if !CheckWords(block, len(dst)) {
		return ErrCorrupt
	}
	groups := len(dst) / 64
	s, uw := int(block[0]), uint(block[1])
	mask := (uint64(1)<<uw - 1) << s
	src, in := block, wordsHdr+groups
	var pos uint // bit offset into src[in]
	var tail [2 * wordsWin]byte
	for g, present := range block[wordsHdr:in] {
		if len(src)-in < wordsWin {
			// The last groups: an eight-byte load could pass the block's
			// end, so the rest of the stream — fewer than wordsWin bytes —
			// is decoded from a zero-padded copy. Once only.
			copy(tail[:], src[in:])
			src, in = tail[:], 0
		}
		// One load per word, present or not: rotate, and mask with the
		// present bit, which is also all the offset moves by.
		b, d, p := (*[wordsWin]byte)(src[in:]), (*[64]byte)(dst[64*g:]), uint(present)
		pos = unpackWord((*[8]byte)(d[0:]), b, pos, p, mask, s, uw)
		pos = unpackWord((*[8]byte)(d[8:]), b, pos, p>>1, mask, s, uw)
		pos = unpackWord((*[8]byte)(d[16:]), b, pos, p>>2, mask, s, uw)
		pos = unpackWord((*[8]byte)(d[24:]), b, pos, p>>3, mask, s, uw)
		pos = unpackWord((*[8]byte)(d[32:]), b, pos, p>>4, mask, s, uw)
		pos = unpackWord((*[8]byte)(d[40:]), b, pos, p>>5, mask, s, uw)
		pos = unpackWord((*[8]byte)(d[48:]), b, pos, p>>6, mask, s, uw)
		pos = unpackWord((*[8]byte)(d[56:]), b, pos, p>>7, mask, s, uw)
		in += int(pos >> 3)
		pos &= 7
	}
	return nil
}

// unpackWord expands the w bits at bit pos of b into d if bit 0 of p is
// set, else zeroes d, and returns the bit position of the next word. One
// rotate moves the word's bits from [pos&7, pos&7+w) of the load to
// [s, s+w), and mask (w ones at s) keeps only them.
func unpackWord(d *[8]byte, b *[wordsWin]byte, pos, p uint, mask uint64, s int, w uint) uint {
	p &= 1
	i := pos >> 3 & 31
	v := bits.RotateLeft64(binary.LittleEndian.Uint64(b[i:i+8:i+8]), s-int(pos&7)) & mask & -uint64(p)
	binary.LittleEndian.PutUint64(d[:], v)
	return pos + w&-p
}
