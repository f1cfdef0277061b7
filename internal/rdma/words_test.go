package rdma

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"testing"
)

// refUnpackWords is the format read a bit at a time: one bitmap bit per
// word, w stream bits per set bit landing at bit s of that word, the
// stream ending in the block's last byte. It checks only what it must to
// stay in bounds, and is independent of UnpackWords.
func refUnpackWords(block []byte, rawLen int) ([]byte, bool) {
	groups := rawLen / 64
	if rawLen <= 0 || rawLen%64 != 0 || len(block) < 2+groups {
		return nil, false
	}
	s, w := int(block[0]), int(block[1])
	if w < 1 || w > 32 || s+w > 64 {
		return nil, false
	}
	out := make([]byte, rawLen)
	bit := 8 * (2 + groups)
	for word := 0; word < rawLen/8; word++ {
		if block[2+word/8]>>(word%8)&1 == 0 {
			continue
		}
		if bit+w > 8*len(block) {
			return nil, false
		}
		var v uint64
		for k := 0; k < w; k, bit = k+1, bit+1 {
			v |= uint64(block[bit/8]>>(bit%8)&1) << k
		}
		binary.LittleEndian.PutUint64(out[8*word:], v<<s)
	}
	return out, (bit+7)/8 == len(block)
}

// refPackWords is PackWords a bit at a time: the block the group kernel
// must emit, byte for byte.
func refPackWords(src []byte, s, w int) []byte {
	block := make([]byte, 2+len(src)/64)
	block[0], block[1] = byte(s), byte(w)
	bit := 0
	for word := 0; word < len(src)/8; word++ {
		v := binary.LittleEndian.Uint64(src[8*word:])
		if v == 0 {
			continue
		}
		block[2+word/8] |= 1 << (word % 8)
		for k := 0; k < w; k, bit = k+1, bit+1 {
			if bit%8 == 0 {
				block = append(block, 0)
			}
			block[len(block)-1] |= byte(v>>(s+k)&1) << (bit % 8)
		}
	}
	return block
}

// refScanWords is ScanWords' contract a byte at a time: the verdict from
// the byte lanes the non-zero bytes occupy (the lane-packed format's
// test, which the bit-packed one keeps), (s, w) from the bits they hold.
// lanes is the width of the lane window.
func refScanWords(src []byte) (s, w, lanes int) {
	minLane, maxLane := 8, -1
	var or uint64
	for i, c := range src {
		if c != 0 {
			minLane, maxLane = min(minLane, i%8), max(maxLane, i%8)
			or |= uint64(c) << (8 * (i % 8))
		}
	}
	switch {
	case maxLane < 0:
		return 0, 0, 0
	case len(src)%64 != 0 || maxLane-minLane >= 4:
		return 0, -1, -1
	}
	s = bits.TrailingZeros64(or)
	return s, 64 - bits.LeadingZeros64(or) - s, maxLane - minLane + 1
}

// wordsSeed is one hand-built block, the object size it claims to expand
// to, and whether the format accepts the pair.
type wordsSeed struct {
	name   string
	block  []byte
	rawLen uint32
	valid  bool
}

func wordsBlk(s, w byte, bitmap []byte, stream ...byte) []byte {
	return append(append([]byte{s, w}, bitmap...), stream...)
}

func wordsSeq(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(0xA0 + i)
	}
	return b
}

// wordsEdgeSeeds sit on every edge of CheckWords' verdict and of the
// decoder's eight-byte-load guard. (Their names date from the lane-packed
// format; each now probes the same edge in bits.)
func wordsEdgeSeeds() []wordsSeed {
	blk, seq := wordsBlk, wordsSeq
	return []wordsSeed{
		{"w=0", blk(0, 0, []byte{0x00}), 64, false},
		{"w=0 with a set bit", blk(0, 0, []byte{0x01}), 64, false},
		{"w=1", blk(0, 1, []byte{0x01}, 0x01), 64, true},
		{"w=4", blk(0, 4, []byte{0x80}, 0x0B), 64, true},
		{"w=5", blk(0, 5, []byte{0x01}, 0x15), 64, true},
		{"lo+w=8, lanes 4-7 (short-mantissa float64s)", blk(32, 32, []byte{0x11}, seq(8)...), 64, true},
		{"lo+w=8, top lane only (tagged handles)", blk(56, 8, []byte{0xFF}, seq(8)...), 64, true},
		{"lo+w=9", blk(40, 32, []byte{0x01}, 1, 2, 3, 4), 64, false},
		{"lo=8", blk(64, 1, []byte{0x01}, 1), 64, false},
		{"lo=255", blk(255, 1, []byte{0x01}, 1), 64, false},
		{"rawLen=0", blk(0, 1, nil), 0, false},
		{"rawLen=56", blk(0, 1, nil, 1), 56, false},
		{"rawLen=72", blk(0, 1, []byte{0x01}, 1), 72, false},
		{"rawLen=MaxFrame, block far too short for the bitmap", blk(0, 1, []byte{0x01}, 1), MaxFrame, false},
		{"empty bitmap", blk(0, 2, []byte{0x00}), 64, true},
		{"header only", []byte{0, 1}, 64, false},
		{"one byte", []byte{0}, 64, false},
		{"popcount one more than the word area holds", blk(0, 16, []byte{0x03}, 1, 2), 64, false},
		{"popcount one fewer than the word area holds", blk(0, 16, []byte{0x01}, 1, 2, 3, 4), 64, false},
		{"word area one byte short", blk(0, 24, []byte{0x03}, 1, 2, 3, 4, 5), 64, false},
		{"all-ones bitmap, w=4", blk(0, 4, []byte{0xFF, 0xFF}, seq(8)...), 128, true},
		{"set bit over a zero word (legal, not canonical)", blk(0, 16, []byte{0x05}, 0, 0, 0x34, 0x12), 64, true},
		{"lanes wider than the data (legal, not canonical)", blk(0, 32, []byte{0x02}, 7, 0, 0, 0), 64, true},
		// The block ends in the last word's last byte: an eight-byte load
		// of any word of these would pass it.
		{"w=1 tail", blk(2, 1, []byte{0xFF}, 0xA5), 64, true},
		{"w=2 tail", blk(1, 2, []byte{0xFF}, seq(2)...), 64, true},
		{"w=3 tail", blk(0, 3, []byte{0xFF}, seq(3)...), 64, true},
		{"w=3, one word, at the very end", blk(5, 3, []byte{0x00, 0x80}, 0x05), 128, true},
	}
}

// wordsBitSeeds are the edges only the bit-packed format has: the width
// and shift limits, a stream that ends inside its last byte or on it, and
// a block one byte either side of its equation.
func wordsBitSeeds() []wordsSeed {
	blk := wordsBlk
	return []wordsSeed{
		{"w=32, s=32", blk(32, 32, []byte{0x01}, 1, 2, 3, 4), 64, true},
		{"w=33", blk(0, 33, []byte{0x01}, 1, 2, 3, 4, 5), 64, false},
		{"s+w=65", blk(33, 32, []byte{0x01}, 1, 2, 3, 4), 64, false},
		{"stream ends mid-byte", blk(0, 3, []byte{0x07}, 0xFF, 0x01), 64, true},
		{"stream ends on a byte", blk(0, 4, []byte{0x03}, 0x21), 64, true},
		{"one byte short", blk(0, 3, []byte{0x07}, 0xFF), 64, false},
		{"one byte long", blk(0, 3, []byte{0x07}, 0xFF, 0x01, 0x00), 64, false},
		{"padding bits set (legal, not canonical)", blk(0, 3, []byte{0x07}, 0xFF, 0xFF), 64, true},
	}
}

// wordsWidthObjects are 128-byte objects that pack at every width 1..32,
// once at s=0 and once at the top of the highest four-lane window
// (s+w=64): every third word zero, the others w bits wide.
func wordsWidthObjects() [][]byte {
	var objs [][]byte
	for w := 1; w <= 32; w++ {
		for _, s := range []int{0, 64 - w} {
			obj := make([]byte, 128)
			for i := 0; i < 16; i++ {
				if i%3 != 0 {
					v := (uint64(1)<<(w-1) | uint64(i)) & (1<<w - 1)
					binary.LittleEndian.PutUint64(obj[8*i:], v<<s)
				}
			}
			objs = append(objs, obj)
		}
	}
	return objs
}

// checkWordsBlock holds CheckWords and UnpackWords to each other and to
// the reference on one (block, rawLen) pair, and returns the verdict. The
// block is decoded from a clipped copy, so a load past its end panics.
func checkWordsBlock(t testing.TB, block []byte, rawLen int) bool {
	t.Helper()
	block = slices.Clip(bytes.Clone(block))
	orig := bytes.Clone(block)
	want, valid := refUnpackWords(block, rawLen)
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
	// Every byte of dst is written: a second dst that started out
	// different ends up the same.
	again := bytes.Repeat([]byte{0x3A}, rawLen)
	if err := UnpackWords(again, block); err != nil || !bytes.Equal(again, want) {
		t.Fatalf("UnpackWords left bytes of dst as it found them (err=%v)", err)
	}
	return true
}

// checkWordsPack holds ScanWords to its byte-wise contract on src and, if
// src is eligible, PackWords to the reference block and to the lane
// format's size: no block is larger than its lanes would have been.
func checkWordsPack(t testing.TB, src []byte) {
	t.Helper()
	orig := bytes.Clone(src)
	s, w := ScanWords(src)
	wantS, wantW, lanes := refScanWords(src)
	if s != wantS || w != wantW {
		t.Fatalf("ScanWords = (s=%d, w=%d), byte-wise reference (s=%d, w=%d)", s, w, wantS, wantW)
	}
	if w < 1 {
		return // zero, a word outside a four-lane window, or not whole groups
	}
	dst, intact := guarded(WordsBound(len(src)))
	n := PackWords(dst, src, s, w)
	if !intact() {
		t.Fatal("PackWords wrote outside dst")
	}
	if !bytes.Equal(src, orig) {
		t.Fatal("PackWords modified src")
	}
	if laneLen := wordsLaneLen(src, lanes); n > laneLen || n >= len(src) {
		t.Fatalf("PackWords emitted %d bytes for %d in; %d lanes would have taken %d", n, len(src), lanes, laneLen)
	}
	if ref := refPackWords(src, s, w); !bytes.Equal(dst[:n], ref) {
		t.Fatalf("PackWords emitted %d bytes, the bit-at-a-time reference %d (or different ones)", n, len(ref))
	}
	if back, ok := refUnpackWords(dst[:n], len(src)); !ok || !bytes.Equal(back, src) {
		t.Fatalf("PackWords output does not unpack under the reference to the input (valid=%v)", ok)
	}
	if !checkWordsBlock(t, dst[:n], len(src)) {
		t.Fatal("PackWords output fails CheckWords")
	}
}

// wordsLaneLen is the size of src's lane-packed block at the given lane
// count: 2 + n/64 + lanes per non-zero word.
func wordsLaneLen(src []byte, lanes int) int {
	n := 2 + len(src)/64
	for i := 0; i < len(src); i += 8 {
		if binary.LittleEndian.Uint64(src[i:]) != 0 {
			n += lanes
		}
	}
	return n
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

// FuzzWords holds the bit-packed codec to its format:
//
//   - data as a (possibly forged) block for a rawLen-byte object:
//     CheckWords and UnpackWords reach the reference's verdict; a refused
//     block leaves dst untouched, an accepted one fills it with the
//     reference's bytes; nothing is written outside dst and nothing is
//     read past the block;
//   - data as an object: ScanWords answers what a byte-wise scan answers,
//     and an eligible object packs — inside a dst of WordsBound, without
//     touching src — to the reference's block, no larger than its lanes
//     would have been, that passes CheckWords and unpacks to the object.
func FuzzWords(f *testing.F) {
	addObj := func(obj []byte) {
		f.Add(obj, uint32(len(obj)))
		dst := make([]byte, WordsBound(len(obj)))
		s, w := ScanWords(obj)
		f.Add(dst[:PackWords(dst, obj, s, w)], uint32(len(obj)))
	}
	for _, s := range wordsEdgeSeeds() {
		f.Add(s.block, s.rawLen)
	}
	for _, sh := range wordsShapes() {
		addObj(sh.obj)
	}
	for _, s := range wordsBitSeeds() {
		f.Add(s.block, s.rawLen)
	}
	for _, obj := range wordsWidthObjects() {
		addObj(obj)
	}
	f.Add(wordsMaxFrameObject(), uint32(MaxFrame))
	f.Fuzz(func(t *testing.T, data []byte, rawLen uint32) {
		// Objects of any size share one code path; keep the fuzzer's dst small.
		checkWordsBlock(t, data, int(rawLen%(1<<17)))
		checkWordsPack(t, data)
	})
}

// wordsMaxFrameObject is the largest object a frame can carry, of small
// words: it packs, and its block's bitmap alone is 256 KiB.
func wordsMaxFrameObject() []byte {
	obj := make([]byte, MaxFrame)
	for i := 0; i < len(obj); i += 8 * 7 {
		binary.LittleEndian.PutUint64(obj[i:], uint64(i>>3)%1021+1)
	}
	return obj
}

// TestWordsEdgeSeeds checks each hand-built block is what its name says
// — at the size it names, MaxFrame included — and that every shape that
// should pack does.
func TestWordsEdgeSeeds(t *testing.T) {
	for _, s := range append(wordsEdgeSeeds(), wordsBitSeeds()...) {
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
	for i, obj := range wordsWidthObjects() {
		if s, w := ScanWords(obj); w != i/2+1 || s != (i%2)*(64-w) {
			t.Fatalf("width object %d scans as (s=%d, w=%d)", i, s, w)
		}
		checkWordsPack(t, obj)
	}
	checkWordsPack(t, wordsMaxFrameObject())
}

// wordsTestObjects are the objects the kernel tests run over: every shape
// of 64 lzShapesFrom corpora, and random objects of every lane window
// (lo 0..7, 1..4 lanes), zero density and length — the last, sparse groups
// are where the decoder hands over to its zero-padded tail — plus random
// bit windows, some of which straddle five lanes and must not pack.
func wordsTestObjects() [][]byte {
	var objs [][]byte
	for seed := uint64(1); seed <= 64; seed++ {
		for _, sh := range lzShapesFrom(seed * 0x9E3779B97F4A7C15) {
			objs = append(objs, sh.obj)
		}
	}
	x := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	fill := func(n int, zeroPct uint64, word func() uint64) []byte {
		obj := make([]byte, n)
		for i := 0; i < n; i += 8 {
			if next()%100 >= zeroPct {
				binary.LittleEndian.PutUint64(obj[i:], word())
			}
		}
		return obj
	}
	for lo := 0; lo < 8; lo++ {
		for w := 1; w <= 4 && lo+w <= 8; w++ {
			for _, zeroPct := range []uint64{0, 30, 60, 90, 99} {
				for _, n := range []int{64, 128, 192, 512, 4096} {
					objs = append(objs, fill(n, zeroPct, func() uint64 { return next() & (1<<(8*w) - 1) << (8 * lo) }))
				}
			}
		}
	}
	for bw := 1; bw <= 32; bw++ {
		bs := int(next() % uint64(65-bw))
		objs = append(objs, fill(512, 50, func() uint64 { return next() & (1<<bw - 1) << bs }))
	}
	return objs
}

// TestBitPackedWordsNeverLarger: the bit-packed format qualifies exactly
// the objects the lane-packed one did — ScanWords' zero / eligible /
// neither verdict is a byte-wise lane scan's — and no eligible object's
// block is larger than its lanes would have made it.
func TestBitPackedWordsNeverLarger(t *testing.T) {
	verdicts := map[int]int{}
	for _, obj := range wordsTestObjects() {
		s, w := ScanWords(obj)
		_, refW, lanes := refScanWords(obj)
		if min(w, 1) != min(refW, 1) {
			t.Fatalf("ScanWords verdict w=%d, the lane scan's w=%d", w, refW)
		}
		verdicts[min(w, 1)]++
		if w < 1 {
			continue
		}
		dst := make([]byte, WordsBound(len(obj)))
		if n, laneLen := PackWords(dst, obj, s, w), wordsLaneLen(obj, lanes); n > laneLen {
			t.Fatalf("%d-byte object packs to %d bytes, %d in %d lanes", len(obj), n, laneLen, lanes)
		}
	}
	if verdicts[-1] < 64 || verdicts[0] < 1 || verdicts[1] < 500 {
		t.Fatalf("verdicts (neither, zero, eligible) = %d, %d, %d: the corpus misses a class", verdicts[-1], verdicts[0], verdicts[1])
	}
}

// TestWordsKernelsMatchPrevious holds PackWords and UnpackWords to the
// bit-at-a-time reference (refPackWords, refUnpackWords), block for block
// and byte for byte, over every test object (checkWordsPack).
func TestWordsKernelsMatchPrevious(t *testing.T) {
	packed := 0
	for _, obj := range wordsTestObjects() {
		if _, w := ScanWords(obj); w > 0 {
			packed++
		}
		checkWordsPack(t, obj)
	}
	if packed < 500 {
		t.Fatalf("only %d test objects pack", packed)
	}
}

// TestCompressBoundCoversWordsBound: both encoders' callers size one
// scratch by CompressBound (DataBatchCBuilder.Add, the client's
// compressInto), so it must hold PackWords' dst — the largest block and
// the 8 bytes of slack its last stores write — for every object size
// that can pack, up to the largest a frame can carry.
func TestCompressBoundCoversWordsBound(t *testing.T) {
	for n := 64; n <= MaxFrame; n += 64 {
		if WordsBound(n) > CompressBound(n) {
			t.Fatalf("WordsBound(%d) = %d > CompressBound = %d", n, WordsBound(n), CompressBound(n))
		}
	}
}

// TestSchemeChoiceBytes bounds the byte trade DataBatchCBuilder.Add — the
// decision point both ends share — makes by bit-packing whatever scans
// as small words instead of running LZ over it too and keeping the
// smaller: on the bfs and analytics shapes the packed block is well under
// the LZ block; on the shapes that do not scan as small words the segment
// is byte for byte what LZ alone produced (or raw, where LZ declined);
// and on the one shape where packing loses — a long run of one small
// constant, which LZ folds into a single match — the block is still
// within WordsBound, a tenth of the object.
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
