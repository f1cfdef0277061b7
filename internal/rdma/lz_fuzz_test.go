package rdma

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Reference codec: the greedy insert-every-byte compressor and the
// byte-at-a-time decoder lz.go started from, kept verbatim. The stream
// format is defined by refLZDecompress, and FuzzLZ holds LZDecompress to
// it verdict for verdict and byte for byte. refLZCompress is the ratio
// yardstick: lz.go's parse is free to differ from it as long as its
// output decodes under refLZDecompress and is not meaningfully larger
// (TestLZRatioHoldsToGreedyReference).

func refLZCompress(dst, src []byte) (n int, ok bool) {
	if len(src) < 16 || len(dst) < CompressBound(len(src)) {
		return 0, false
	}
	var table [lzTableSize]int32
	limit := len(src) - 1
	var out, anchor, pos int
	end := len(src) - lzMinMatch
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
		mlen := lzMinMatch
		for pos+mlen < len(src) && src[cand+mlen] == src[pos+mlen] {
			mlen++
		}
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

func refLZDecompress(dst, src []byte) error {
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
		for i := 0; i < mlen; i++ {
			dst[out] = dst[out-off]
			out++
		}
	}
}

// lzSeq hand-assembles one sequence: literals, then (when mlen > 0) a
// match of mlen bytes at distance off. mlen == 0 builds the final
// literal-only sequence.
func lzSeq(lits []byte, off, mlen int) []byte {
	ext := func(b []byte, v int) []byte {
		var tmp [16]byte // room for lengths up to 15*255
		return append(b, tmp[:lzPutExt(tmp[:], v)]...)
	}
	tok := byte(min(len(lits), 15)) << 4
	if mlen > 0 {
		tok |= byte(min(mlen-lzMinMatch, 15))
	}
	b := []byte{tok}
	if len(lits) >= 15 {
		b = ext(b, len(lits)-15)
	}
	b = append(b, lits...)
	if mlen == 0 {
		return b
	}
	b = append(b, byte(off), byte(off>>8))
	if mlen-lzMinMatch >= 15 {
		b = ext(b, mlen-lzMinMatch-15)
	}
	return b
}

// lzFuzzPlaintexts are the object shapes the far tier actually ships,
// plus the match geometries the word-at-a-time paths special-case.
func lzFuzzPlaintexts() [][]byte {
	rng := rand.New(rand.NewSource(13))
	words := func(n int, gen func(i int) uint64) []byte {
		b := make([]byte, 8*n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], gen(i))
		}
		return b
	}
	oneWord := make([]byte, 4096) // array-read's objects: all zero but one word
	binary.LittleEndian.PutUint64(oneWord[2048:], 0xDEADBEEFCAFEF00D)
	ramp := make([]byte, 4096)
	for i := range ramp {
		ramp[i] = byte(i)
	}
	row := uint64(0)
	return [][]byte{
		oneWord,
		ramp,
		bytes.Repeat([]byte{0x5A}, 300),      // off=1 run
		bytes.Repeat([]byte("abc"), 400),     // period 3
		bytes.Repeat([]byte("sevenby"), 200), // period 7
		bytes.Repeat([]byte("thirteen.byte"), 100),                // period 13
		append(bytes.Repeat([]byte("0123456789abcdefXYZ"), 9), 1), // mismatch inside the byte tail
		// BFS adjacency objects (CSR): row offsets, neighbour ids, levels.
		words(512, func(int) uint64 { row += uint64(4 + rng.Intn(9)); return row }),
		words(512, func(int) uint64 { return uint64(rng.Intn(4096)) }),
		words(512, func(int) uint64 { return uint64(int64(rng.Intn(6) - 1)) }),
	}
}

// lzShape is one generated 4 KiB object of a kind the benchmark's
// workloads ship (captured there, regenerated here from a fixed seed).
type lzShape struct {
	name string
	obj  []byte
}

func lzShapes() []lzShape { return lzShapesFrom(0x9E3779B97F4A7C15) }

// lzShapesFrom draws the shapes from another point of the generator: the
// same kinds of object, different bytes.
func lzShapesFrom(x uint64) []lzShape {
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	words := func(gen func(i int) uint64) []byte {
		b := make([]byte, 4096)
		for i := 0; i < 512; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], gen(i))
		}
		return b
	}
	ramp := make([]byte, 4096)
	for i := range ramp {
		ramp[i] = byte(i + 37)
	}
	return []lzShape{
		// bfs: vertex ids below 1024, about 60 % of the words still zero.
		{"int64-sparse", words(func(int) uint64 {
			if next()%10 < 6 {
				return 0
			}
			return next() % 1024
		})},
		// analytics: one taxi column, three live bytes per word.
		{"taxi-column", words(func(int) uint64 { return next() % (1 << 19) })},
		// store-fanin's compressible DS.
		{"byte-ramp", ramp},
		// array-read: everything zero but one word.
		{"one-word", words(func(i int) uint64 {
			if i == 273 {
				return 0x41F2E6B0C3D5A795
			}
			return 0
		})},
		{"mostly-zero", words(func(int) uint64 {
			if next()%16 != 0 {
				return 0
			}
			return next()
		})},
		// store-fanin's other DS.
		{"xorshift-noise", words(func(int) uint64 { return next() })},
	}
}

// lzSeed is one hand-built stream, the size of the dst it is decoded
// into, and whether the reference decoder accepts the pair.
type lzSeed struct {
	stream []byte
	dlen   uint16
	valid  bool
}

// lzFastPathSeeds are streams whose sequences sit on each edge of the
// decoder fast path's guard (lz.go, lzFastIn / lzFastOut): how much of
// dst and of src remains when a both-nibbles-short token is met, the
// offset on either side of 8, and the nibbles on either side of 15.
// Every stream opens with 16 literals and a 4-byte match (20 bytes out,
// 20 bytes in) so the probed sequence has history to point into.
func lzFastPathSeeds() (seeds []lzSeed) {
	join := func(seqs ...[]byte) []byte { return bytes.Join(seqs, nil) }
	head := lzSeq([]byte("0123456789abcdef"), 16, 4)
	lits := []byte("ZYXWVUTSRQPONMLKJIHG")
	add := func(stream []byte, dlen int) {
		seeds = append(seeds, lzSeed{stream, uint16(dlen), true})
	}
	bad := func(stream []byte, dlen int) {
		seeds = append(seeds, lzSeed{stream, uint16(dlen), false})
	}
	// dst edge: the probed sequence (2 literals, 4-byte match) starts with
	// 29..34 bytes of dst left; the rest are final literals.
	for left := 29; left <= 34; left++ {
		tail := bytes.Repeat([]byte{'t'}, left-6)
		add(join(head, lzSeq(lits[:2], 9, 4), lzSeq(tail, 0, 0)), 20+left)
	}
	// src edge: the probed sequence starts with 15..20 bytes of src left,
	// dst kept roomy by a long run behind it.
	for a := 7; a <= 12; a++ {
		add(join(head, lzSeq(lits[:a], 12, 5), lzSeq(nil, 1, 100), lzSeq(nil, 0, 0)), 20+a+5+100)
	}
	room := lzSeq(bytes.Repeat([]byte{'r'}, 40), 0, 0)
	// off 7/8/9 (and the self-overlapping 1), shortest and longest
	// nibble-coded match: the 18-byte store crosses out+mlen whenever
	// mlen < 18, and the 40 literals behind it must win.
	for _, off := range []int{1, 7, 8, 9, 15, 16, 17, 20} {
		for _, mlen := range []int{4, 11, 18} {
			add(join(head, lzSeq(lits[:3], off, mlen), room), 20+3+mlen+40)
		}
	}
	// lit 14/15 and match nibble 14/15 (mlen 18/19).
	for _, lit := range []int{0, 14, 15} {
		for _, mlen := range []int{18, 19} {
			add(join(head, lzSeq(lits[:lit], 10, mlen), room), 20+lit+mlen+40)
		}
	}
	// Verdicts inside the fast path: offset 0, offset one past the start
	// of output, and a dst one byte short / one byte long.
	bad(join(head, lzSeq(lits[:3], 0, 8), room), 20+3+8+40)
	bad(join(head, lzSeq(lits[:3], 24, 8), room), 20+3+8+40)
	add(join(head, lzSeq(lits[:3], 23, 8), room), 20+3+8+40)
	bad(join(head, lzSeq(lits[:3], 9, 8), room), 20+3+8+40-1)
	bad(join(head, lzSeq(lits[:3], 9, 8), room), 20+3+8+40+1)
	return seeds
}

// guarded returns a len-n slice sitting between two canary regions of
// its own backing array, and a check that the canaries are intact — a
// write outside the slice (even one inside its capacity) is caught.
func guarded(n int) (buf []byte, intact func() bool) {
	const pad = 64
	arena := bytes.Repeat([]byte{0xC5}, n+2*pad)
	canary := bytes.Repeat([]byte{0xC5}, pad)
	return arena[pad : pad+n], func() bool {
		return bytes.Equal(arena[:pad], canary) && bytes.Equal(arena[pad+n:], canary)
	}
}

// FuzzLZ holds the codec to the byte-wise reference:
//
//   - data as a (possibly corrupt) compressed stream: both decoders
//     reach the same verdict and, on success, the same bytes; the new
//     one never panics, never writes outside dst, never modifies src;
//   - data as plaintext: whatever the compressor emits decodes under the
//     reference decoder to the input (so any peer that speaks the format
//     reads it), is strictly smaller than the input, and was written
//     inside dst without touching src.
func FuzzLZ(f *testing.F) {
	for _, p := range lzFuzzPlaintexts() {
		f.Add(p, uint16(len(p)))
		comp := make([]byte, CompressBound(len(p)))
		if n, ok := refLZCompress(comp, p); ok {
			f.Add(comp[:n], uint16(len(p)))
		}
	}
	join := func(seqs ...[]byte) []byte { return bytes.Join(seqs, nil) }
	for _, s := range []lzSeed{
		{join(lzSeq([]byte("A"), 1, 100), lzSeq(nil, 0, 0)), 101, true},               // off=1, match ends exactly at len(dst)
		{join(lzSeq([]byte("abc"), 3, 50), lzSeq([]byte("tail"), 0, 0)), 57, true},    // off < mlen, period 3
		{join(lzSeq([]byte("sevenby"), 7, 1000), lzSeq(nil, 0, 0)), 1007, true},       // long self-overlap, period 7
		{join(lzSeq([]byte("0123456789"), 10, 10), lzSeq(nil, 0, 0)), 20, true},       // off == mlen
		{join(lzSeq([]byte("0123456789"), 4, 5), lzSeq([]byte("!"), 0, 0)), 16, true}, // off < mlen by one
		{join(lzSeq([]byte("A"), 1, 100), lzSeq(nil, 0, 0)), 100, false},              // match overruns dst by one
		{join(lzSeq([]byte("A"), 2, 8), lzSeq(nil, 0, 0)), 9, false},                  // offset before start of output
		{join(lzSeq([]byte("A"), 0, 8), lzSeq(nil, 0, 0)), 9, false},                  // zero offset
	} {
		if err := refLZDecompress(make([]byte, s.dlen), s.stream); (err == nil) != s.valid {
			f.Fatalf("hand-built seed %x: reference verdict %v, want valid=%v", s.stream, err, s.valid)
		}
		f.Add(s.stream, s.dlen)
	}
	// New seeds go below this line: the corpus entries above are named by
	// position (seed#0..27).
	for _, sh := range lzShapes() {
		f.Add(sh.obj, uint16(len(sh.obj)))
		comp := make([]byte, CompressBound(len(sh.obj)))
		if n, ok := refLZCompress(comp, sh.obj); ok {
			f.Add(comp[:n], uint16(len(sh.obj)))
		}
	}
	for _, s := range lzFastPathSeeds() {
		f.Add(s.stream, s.dlen)
	}

	f.Fuzz(func(t *testing.T, data []byte, dlen uint16) {
		src := append([]byte(nil), data...)
		want := make([]byte, dlen)
		werr := refLZDecompress(want, src)
		got, intact := guarded(int(dlen))
		gerr := LZDecompress(got, src)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("decode verdict: reference %v, got %v", werr, gerr)
		}
		if !intact() {
			t.Fatalf("decoder wrote outside dst")
		}
		if !bytes.Equal(src, data) {
			t.Fatalf("decoder modified src")
		}
		if gerr == nil && !bytes.Equal(got, want) {
			t.Fatalf("decoded bytes differ from reference")
		}

		gcomp, intact := guarded(CompressBound(len(data)))
		gn, gok := LZCompress(gcomp, src)
		if !intact() {
			t.Fatalf("compressor wrote outside dst")
		}
		if !bytes.Equal(src, data) {
			t.Fatalf("compressor modified src")
		}
		if !gok {
			return
		}
		if gn >= len(data) {
			t.Fatalf("compressor reported a gain with %d bytes out for %d in", gn, len(data))
		}
		back := make([]byte, len(data))
		if err := refLZDecompress(back, gcomp[:gn]); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("compressor output does not decode under the reference to the input: %v", err)
		}
	})
}

// TestLZFastPathSeeds checks the hand-built edge streams are what their
// comments say — the reference's verdict on each is the one recorded —
// and that LZDecompress agrees on every one.
func TestLZFastPathSeeds(t *testing.T) {
	for i, s := range lzFastPathSeeds() {
		want := make([]byte, s.dlen)
		werr := refLZDecompress(want, s.stream)
		if (werr == nil) != s.valid {
			t.Fatalf("seed %d (%x, dlen %d): reference verdict %v, want valid=%v", i, s.stream, s.dlen, werr, s.valid)
		}
		got, intact := guarded(int(s.dlen))
		gerr := LZDecompress(got, s.stream)
		if (gerr == nil) != (werr == nil) || !intact() || (gerr == nil && !bytes.Equal(got, want)) {
			t.Fatalf("seed %d (%x, dlen %d): decoder %v vs reference %v, canaries intact=%v", i, s.stream, s.dlen, gerr, werr, intact())
		}
	}
}

// TestLZRatioHoldsToGreedyReference bounds what the fast parse may give
// up: summed over the shapes the far tier ships, its output is at most
// 2 % larger than the greedy insert-every-byte reference's (an object
// either side declines counts at its raw size).
func TestLZRatioHoldsToGreedyReference(t *testing.T) {
	var inputs [][]byte
	inputs = append(inputs, lzFuzzPlaintexts()...)
	for _, sh := range lzShapes() {
		inputs = append(inputs, sh.obj)
	}
	var got, ref int
	for _, p := range inputs {
		buf := make([]byte, CompressBound(len(p)))
		g, r := len(p), len(p)
		if n, ok := LZCompress(buf, p); ok {
			g = n
		}
		if n, ok := refLZCompress(buf, p); ok {
			r = n
		}
		got += g
		ref += r
	}
	t.Logf("compressed bytes over %d inputs: %d, greedy reference %d (x%.3f)", len(inputs), got, ref, float64(got)/float64(ref))
	if got*100 > ref*102 {
		t.Fatalf("output is %d bytes against the reference's %d: more than 2 %% larger", got, ref)
	}
}
