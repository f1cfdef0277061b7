package rdma

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Reference codec: the byte-at-a-time match extension and match copy
// the word-at-a-time codec in lz.go replaced, kept verbatim so FuzzLZ
// can hold the fast paths to them. The stream format and the
// compressor's parse are defined by these two functions.

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

// FuzzLZ holds the word-at-a-time codec to the byte-wise reference:
//
//   - data as a (possibly corrupt) compressed stream: both decoders
//     reach the same verdict and, on success, the same bytes; the new
//     one never panics, never writes outside dst, never modifies src;
//   - data as plaintext: both compressors emit byte-identical output
//     (so the bytes on the wire cannot move) and it round-trips.
func FuzzLZ(f *testing.F) {
	for _, p := range lzFuzzPlaintexts() {
		f.Add(p, uint16(len(p)))
		comp := make([]byte, CompressBound(len(p)))
		if n, ok := refLZCompress(comp, p); ok {
			f.Add(comp[:n], uint16(len(p)))
		}
	}
	join := func(seqs ...[]byte) []byte { return bytes.Join(seqs, nil) }
	for _, s := range []struct {
		stream []byte
		dlen   uint16
		valid  bool
	}{
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

		wcomp := make([]byte, CompressBound(len(data)))
		wn, wok := refLZCompress(wcomp, data)
		gcomp, intact := guarded(CompressBound(len(data)))
		gn, gok := LZCompress(gcomp, data)
		if wok != gok || wn != gn || !bytes.Equal(wcomp[:wn], gcomp[:gn]) {
			t.Fatalf("compressor output differs from reference: ok %v/%v, %d/%d bytes", wok, gok, wn, gn)
		}
		if !intact() {
			t.Fatalf("compressor wrote outside dst")
		}
		if !gok {
			return
		}
		back := make([]byte, len(data))
		if err := LZDecompress(back, gcomp[:gn]); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}
