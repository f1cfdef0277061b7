package rdma

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
)

// byteUnpackWords is the format written out byte by byte: one bitmap bit
// per word, w bytes per set bit landing in lanes lo.., nothing else. It
// checks only what it must to stay in bounds.
func byteUnpackWords(block []byte, rawLen int) ([]byte, bool) {
	groups := rawLen / 64
	if rawLen <= 0 || rawLen%64 != 0 || len(block) < 2+groups {
		return nil, false
	}
	lo, w := int(block[0]), int(block[1])
	if w < 1 || w > 4 || lo+w > 8 {
		return nil, false
	}
	out := make([]byte, rawLen)
	in := 2 + groups
	for word := 0; word < rawLen/8; word++ {
		if block[2+word/8]>>(word%8)&1 == 0 {
			continue
		}
		if in+w > len(block) {
			return nil, false
		}
		copy(out[8*word+lo:], block[in:in+w])
		in += w
	}
	return out, in == len(block)
}

// refPackWords is the word-at-a-time PackWords the group kernel replaced:
// one word per iteration, each store offset depending on the one before.
// Blocks must stay byte-identical to what it emits.
func refPackWords(dst, src []byte, lo, w int) int {
	groups := len(src) / 64
	dst[0], dst[1] = byte(lo), byte(w)
	bitmap := dst[wordsHdr : wordsHdr+groups]
	out := wordsHdr + groups
	shift := uint(8 * lo)
	for g := range bitmap {
		grp := src[64*g : 64*g+64]
		var present uint
		for j := 0; j < 8; j++ {
			v := binary.LittleEndian.Uint64(grp[8*j:])
			binary.LittleEndian.PutUint32(dst[out:], uint32(v>>shift))
			nz := uint((v | -v) >> 63)
			present |= nz << j
			out += w & -int(nz)
		}
		bitmap[g] = byte(present)
	}
	return out
}

// refUnpackWords is the UnpackWords the group kernel replaced: zero each
// group, then visit its set bits.
func refUnpackWords(dst, block []byte) error {
	if !CheckWords(block, len(dst)) {
		return ErrCorrupt
	}
	groups := len(dst) / 64
	w := int(block[1])
	shift := uint(8 * block[0])
	mask := uint64(1)<<(8*w) - 1
	in := wordsHdr + groups
	for g, present := range block[wordsHdr:in] {
		grp := dst[64*g : 64*g+64]
		clear(grp)
		for ; present != 0; present &= present - 1 {
			var v uint64
			if in+4 <= len(block) {
				v = uint64(binary.LittleEndian.Uint32(block[in:])) & mask
			} else {
				for k := w - 1; k >= 0; k-- {
					v = v<<8 | uint64(block[in+k])
				}
			}
			in += w
			binary.LittleEndian.PutUint64(grp[8*bits.TrailingZeros8(present):], v<<shift)
		}
	}
	return nil
}

// refScanWords is ScanWords' contract a byte at a time.
func refScanWords(src []byte) (lo, w int) {
	minLane, maxLane := 8, -1
	for i, c := range src {
		if c != 0 {
			minLane, maxLane = min(minLane, i%8), max(maxLane, i%8)
		}
	}
	switch {
	case maxLane < 0:
		return 0, 0
	case len(src)%64 != 0 || maxLane-minLane >= 4:
		return 0, -1
	}
	return minLane, maxLane - minLane + 1
}

// wordsSeed is one hand-built block, the object size it claims to expand
// to, and whether the format accepts the pair.
type wordsSeed struct {
	name   string
	block  []byte
	rawLen uint32
	valid  bool
}

// wordsEdgeSeeds sit on every edge of CheckWords' verdict and of the
// decoder's four-byte-load guard.
func wordsEdgeSeeds() []wordsSeed {
	blk := func(lo, w byte, bitmap []byte, words ...byte) []byte {
		return append(append([]byte{lo, w}, bitmap...), words...)
	}
	seq := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(0xA0 + i)
		}
		return b
	}
	return []wordsSeed{
		{"w=0", blk(0, 0, []byte{0x00}), 64, false},
		{"w=0 with a set bit", blk(0, 0, []byte{0x01}), 64, false},
		{"w=1", blk(0, 1, []byte{0x01}, 0xAB), 64, true},
		{"w=4", blk(0, 4, []byte{0x80}, 1, 2, 3, 4), 64, true},
		{"w=5", blk(0, 5, []byte{0x01}, 1, 2, 3, 4, 5), 64, false},
		{"lo+w=8, lanes 4-7 (short-mantissa float64s)", blk(4, 4, []byte{0x11}, seq(8)...), 64, true},
		{"lo+w=8, top lane only (tagged handles)", blk(7, 1, []byte{0xFF}, seq(8)...), 64, true},
		{"lo+w=9", blk(5, 4, []byte{0x01}, 1, 2, 3, 4), 64, false},
		{"lo=8", blk(8, 1, []byte{0x01}, 1), 64, false},
		{"lo=255", blk(255, 1, []byte{0x01}, 1), 64, false},
		{"rawLen=0", blk(0, 1, nil), 0, false},
		{"rawLen=56", blk(0, 1, nil, 1), 56, false},
		{"rawLen=72", blk(0, 1, []byte{0x01}, 1), 72, false},
		{"rawLen=MaxFrame, block far too short for the bitmap", blk(0, 1, []byte{0x01}, 1), MaxFrame, false},
		{"empty bitmap", blk(0, 2, []byte{0x00}), 64, true},
		{"header only", []byte{0, 1}, 64, false},
		{"one byte", []byte{0}, 64, false},
		{"popcount one more than the word area holds", blk(0, 2, []byte{0x03}, 1, 2), 64, false},
		{"popcount one fewer than the word area holds", blk(0, 2, []byte{0x01}, 1, 2, 3, 4), 64, false},
		{"word area one byte short", blk(0, 3, []byte{0x03}, 1, 2, 3, 4, 5), 64, false},
		{"all-ones bitmap, w=4", blk(0, 4, []byte{0xFF, 0xFF}, seq(64)...), 128, true},
		{"set bit over a zero word (legal, not canonical)", blk(0, 2, []byte{0x05}, 0, 0, 0x34, 0x12), 64, true},
		{"lanes wider than the data (legal, not canonical)", blk(0, 4, []byte{0x02}, 7, 0, 0, 0), 64, true},
		// The block ends on the last word's last byte: a four-byte load of
		// any of the last words of a w < 4 block would pass it.
		{"w=1 tail", blk(2, 1, []byte{0xFF}, seq(8)...), 64, true},
		{"w=2 tail", blk(1, 2, []byte{0xFF}, seq(16)...), 64, true},
		{"w=3 tail", blk(0, 3, []byte{0xFF}, seq(24)...), 64, true},
		{"w=3, one word, at the very end", blk(5, 3, []byte{0x00, 0x80}, 0xC5, 0xC5, 0xC5), 128, true},
	}
}

// checkWordsBlock holds CheckWords and UnpackWords to each other and to
// the reference on one (block, rawLen) pair, and returns the verdict.
func checkWordsBlock(t testing.TB, block []byte, rawLen int) bool {
	t.Helper()
	orig := append([]byte(nil), block...)
	want, valid := byteUnpackWords(block, rawLen)
	if ok := CheckWords(block, rawLen); ok != valid {
		t.Fatalf("CheckWords = %v, reference says %v", ok, valid)
	}
	got, intact := guarded(rawLen) // pre-filled with 0xC5
	err := UnpackWords(got, block)
	if (err == nil) != valid {
		t.Fatalf("UnpackWords = %v, CheckWords says valid=%v", err, valid)
	}
	if !intact() {
		t.Fatal("UnpackWords wrote outside dst")
	}
	if !bytes.Equal(block, orig) {
		t.Fatal("UnpackWords modified the block")
	}
	if !valid {
		if !bytes.Equal(got, bytes.Repeat([]byte{0xC5}, rawLen)) {
			t.Fatal("UnpackWords refused the block but wrote to dst")
		}
		return false
	}
	if !bytes.Equal(got, want) {
		t.Fatal("UnpackWords differs from the reference")
	}
	if prev := make([]byte, rawLen); refUnpackWords(prev, block) != nil || !bytes.Equal(got, prev) {
		t.Fatal("UnpackWords differs from the kernel it replaced")
	}
	// Every byte of dst is written: a second dst that started out
	// different ends up the same.
	again := bytes.Repeat([]byte{0x3A}, rawLen)
	if err := UnpackWords(again, block); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("UnpackWords left bytes of dst as it found them (err=%v)", err)
	}
	return true
}

// checkWordsPack holds ScanWords to its byte-wise contract on src and, if
// src is eligible, PackWords to the block properties.
func checkWordsPack(t testing.TB, src []byte) {
	t.Helper()
	orig := append([]byte(nil), src...)
	lo, w := ScanWords(src)
	if wantLo, wantW := refScanWords(src); lo != wantLo || w != wantW {
		t.Fatalf("ScanWords = lanes [%d,+%d), byte-wise reference [%d,+%d)", lo, w, wantLo, wantW)
	}
	if w < 1 {
		return // zero, a word outside a four-lane window, or not whole groups
	}
	dst, intact := guarded(WordsBound(len(src)))
	n := PackWords(dst, src, lo, w)
	if !intact() {
		t.Fatal("PackWords wrote outside dst")
	}
	if !bytes.Equal(src, orig) {
		t.Fatal("PackWords modified src")
	}
	if n >= len(src) || n > WordsBound(len(src)) {
		t.Fatalf("PackWords emitted %d bytes for %d in (bound %d)", n, len(src), WordsBound(len(src)))
	}
	prev := make([]byte, WordsBound(len(src)))
	if m := refPackWords(prev, src, lo, w); m != n || !bytes.Equal(dst[:n], prev[:m]) {
		t.Fatalf("PackWords emitted %d bytes, the kernel it replaced %d (or different ones)", n, m)
	}
	if back, ok := byteUnpackWords(dst[:n], len(src)); !ok || !bytes.Equal(back, src) {
		t.Fatalf("PackWords output does not unpack under the reference to the input (valid=%v)", ok)
	}
	if !checkWordsBlock(t, dst[:n], len(src)) {
		t.Fatal("PackWords output fails CheckWords")
	}
}

// wordsShapes are the lzShapes that pack, plus one whose live lanes are
// the top four (float64s with short mantissas).
func wordsShapes() []lzShape {
	var out []lzShape
	for _, sh := range lzShapes() {
		if _, w := ScanWords(sh.obj); w > 0 {
			out = append(out, sh)
		}
	}
	floats := make([]byte, 4096)
	for i := 0; i < 512; i += 3 {
		binary.LittleEndian.PutUint64(floats[8*i:], 0x4059000000000000+uint64(i)<<36)
	}
	return append(out, lzShape{"float64-short", floats})
}

// FuzzWords holds the lane-packed codec to its format:
//
//   - data as a (possibly forged) block for a rawLen-byte object:
//     CheckWords and UnpackWords reach the reference's verdict; a refused
//     block leaves dst untouched, an accepted one fills it with the
//     reference's bytes; nothing is written outside dst;
//   - data as an object: ScanWords answers what a byte-wise scan answers,
//     and an eligible object packs — inside a dst of WordsBound, without
//     touching src — to a shorter block that passes CheckWords and
//     unpacks to the object.
func FuzzWords(f *testing.F) {
	for _, s := range wordsEdgeSeeds() {
		f.Add(s.block, s.rawLen)
	}
	for _, sh := range wordsShapes() {
		f.Add(sh.obj, uint32(len(sh.obj)))
		dst := make([]byte, WordsBound(len(sh.obj)))
		lo, w := ScanWords(sh.obj)
		f.Add(dst[:PackWords(dst, sh.obj, lo, w)], uint32(len(sh.obj)))
	}
	f.Fuzz(func(t *testing.T, data []byte, rawLen uint32) {
		// Objects of any size share one code path; keep the fuzzer's dst small.
		checkWordsBlock(t, data, int(rawLen%(1<<17)))
		checkWordsPack(t, data)
	})
}

// TestWordsEdgeSeeds checks each hand-built block is what its name says
// — at the size it names, MaxFrame included — and that every shape that
// should pack does.
func TestWordsEdgeSeeds(t *testing.T) {
	for _, s := range wordsEdgeSeeds() {
		t.Run(s.name, func(t *testing.T) {
			if got := checkWordsBlock(t, s.block, int(s.rawLen)); got != s.valid {
				t.Fatalf("block % x for %d bytes: valid=%v, want %v", s.block, s.rawLen, got, s.valid)
			}
			checkWordsPack(t, s.block)
		})
	}
	shapes := wordsShapes()
	if len(shapes) != 3 {
		t.Fatalf("%d shapes pack, want int64-sparse, taxi-column and float64-short", len(shapes))
	}
	for _, sh := range shapes {
		checkWordsPack(t, sh.obj)
	}
	for _, sh := range lzShapes() {
		checkWordsPack(t, sh.obj)
		checkWordsPack(t, sh.obj[:len(sh.obj)-8]) // not whole groups
	}
}

// TestWordsKernelsMatchPrevious holds PackWords and UnpackWords to the
// kernels they replaced (refPackWords, refUnpackWords), block for block
// and byte for byte, over the lane-packing shapes of many corpora
// (lzShapesFrom) and over random objects of every lane window, length
// and zero density — the last, sparse groups are where the group kernel
// hands over to its exact-width tail.
func TestWordsKernelsMatchPrevious(t *testing.T) {
	objs := [][]byte{}
	for seed := uint64(1); seed <= 64; seed++ {
		for _, sh := range lzShapesFrom(seed * 0x9E3779B97F4A7C15) {
			if _, w := ScanWords(sh.obj); w > 0 {
				objs = append(objs, sh.obj)
			}
		}
	}
	if len(objs) < 128 {
		t.Fatalf("only %d corpus objects pack", len(objs))
	}
	x := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	for lo := 0; lo < 8; lo++ {
		for w := 1; w <= 4 && lo+w <= 8; w++ {
			for _, zeroPct := range []uint64{0, 30, 60, 90, 99} {
				for _, n := range []int{64, 128, 192, 512, 4096} {
					obj := make([]byte, n)
					for i := 0; i < n; i += 8 {
						if next()%100 >= zeroPct {
							binary.LittleEndian.PutUint64(obj[i:], (next()|1)&(1<<(8*w)-1)<<(8*lo))
						}
					}
					objs = append(objs, obj)
				}
			}
		}
	}
	for _, obj := range objs {
		checkWordsPack(t, obj) // packs and unpacks against both kernels
	}
}

// TestSchemeChoiceBytes bounds the byte trade DataBatchCBuilder.Add — the
// decision point both ends share — makes by lane-packing whatever scans
// as small words instead of running LZ over it too and keeping the
// smaller: on the bfs and analytics shapes the packed block is well under
// the LZ block; on the shapes that do not scan as small words the segment
// is byte for byte what LZ alone produced (or raw, where LZ declined);
// and on the one shape where packing loses — a long run of one small
// constant, which LZ folds into a single match — the block is still
// within WordsBound, a seventh of the object.
func TestSchemeChoiceBytes(t *testing.T) {
	constant := make([]byte, 4096)
	for i := 0; i < 4096; i += 8 {
		constant[i] = 42
	}
	shapes := map[string][]byte{"small-constant": constant}
	for _, sh := range lzShapes() {
		shapes[sh.name] = sh.obj
	}
	for _, tc := range []struct {
		shape    string
		scheme   uint8
		vsLZ     float64 // packed block <= vsLZ x the LZ block; 0 = no bound
		lzBetter bool
	}{
		{"int64-sparse", SchemeWords, 0.6, false},
		{"taxi-column", SchemeWords, 0.95, false},
		{"byte-ramp", SchemeLZ, 0, false},
		{"one-word", SchemeLZ, 0, false},
		{"mostly-zero", SchemeLZ, 0, false},
		{"xorshift-noise", SchemeRaw, 0, false},
		{"small-constant", SchemeWords, 0, true},
	} {
		obj := shapes[tc.shape]
		lz := make([]byte, CompressBound(len(obj)))
		lzLen, lzOK := LZCompress(lz, obj)

		var b DataBatchCBuilder
		scheme, wireLen := b.Add(obj, true)
		fr, err := b.Frame(1)
		if err != nil {
			t.Fatal(err)
		}
		segs, err := DecodeDataBatchCInto(fr.Payload, nil)
		if err != nil || len(segs) != 1 || segs[0].Scheme != scheme || len(segs[0].Data) != wireLen {
			t.Fatalf("%s: segment does not round-trip: %v", tc.shape, err)
		}
		if scheme != tc.scheme {
			t.Fatalf("%s: chose scheme %d, want %d", tc.shape, scheme, tc.scheme)
		}
		t.Logf("%-15s scheme %d, %4d B on the wire; LZ alone %4d B (ok=%v)", tc.shape, scheme, wireLen, lzLen, lzOK)
		switch scheme {
		case SchemeWords:
			if wireLen > WordsBound(len(obj)) || !CheckWords(segs[0].Data, len(obj)) {
				t.Fatalf("%s: %d-byte block is invalid or over WordsBound %d", tc.shape, wireLen, WordsBound(len(obj)))
			}
			if tc.vsLZ > 0 && (!lzOK || float64(wireLen) > tc.vsLZ*float64(lzLen)) {
				t.Fatalf("%s: packed block %d B, LZ %d B: want at most x%.2f", tc.shape, wireLen, lzLen, tc.vsLZ)
			}
			if tc.lzBetter && !(lzOK && lzLen < wireLen) {
				t.Fatalf("%s: expected LZ (%d B, ok=%v) to beat the packed block (%d B) here", tc.shape, lzLen, lzOK, wireLen)
			}
		case SchemeLZ:
			if !lzOK || !bytes.Equal(segs[0].Data, lz[:lzLen]) {
				t.Fatalf("%s: LZ segment differs from what LZCompress alone emits", tc.shape)
			}
		case SchemeRaw:
			if lzOK || !bytes.Equal(segs[0].Data, obj) {
				t.Fatalf("%s: raw segment, but LZ alone would have compressed (ok=%v)", tc.shape, lzOK)
			}
		}
		PutBuf(fr.Payload)
		b.Release()
	}
}
