package rdma

import (
	"testing"
	"time"
)

// BenchmarkLZShapes measures the block codecs on the 4 KiB object shapes
// the benchmark's workloads actually ship (lzShapes). benchmark/'s
// ladder compresses one byte ramp, which the codec clears at well over a
// GB/s; bfs objects ran at a fifth of that, and only a per-shape
// benchmark shows it. "ratio" is compressed/raw bytes (1 = declined).
//
// The shapes that lane-pack (words.go) also get words/scan, words/pack,
// words/unpack and words/check ("block-B" is the packed size); the two
// that must cost the scan nothing get scan/bail, which fails if ScanWords
// needs more than its first 64 bytes or 20 ns to give up on a 4 KiB
// object (a full pass is several times that).
func BenchmarkLZShapes(b *testing.B) {
	for _, sh := range lzShapes() {
		benchWordsShape(b, sh)
		comp := make([]byte, CompressBound(len(sh.obj)))
		n, ok := LZCompress(comp, sh.obj)
		ratio := 1.0
		if ok {
			ratio = float64(n) / float64(len(sh.obj))
		}
		b.Run(sh.name+"/compress", func(b *testing.B) {
			b.SetBytes(int64(len(sh.obj)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				LZCompress(comp, sh.obj)
			}
			b.ReportMetric(ratio, "ratio")
		})
		if !ok {
			continue
		}
		b.Run(sh.name+"/decompress", func(b *testing.B) {
			out := make([]byte, len(sh.obj))
			b.SetBytes(int64(len(sh.obj)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := LZDecompress(out, comp[:n]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

func benchWordsShape(b *testing.B, sh lzShape) {
	lo, w := ScanWords(sh.obj)
	if sh.name == "xorshift-noise" || sh.name == "byte-ramp" {
		b.Run(sh.name+"/scan/bail", func(b *testing.B) {
			if _, w := ScanWords(sh.obj[:64]); w >= 0 {
				b.Fatal("the first 64 bytes do not settle the verdict")
			}
			for i := 0; i < b.N; i++ {
				ScanWords(sh.obj)
			}
			if per := b.Elapsed() / time.Duration(b.N); b.N >= 1000 && per > 20*time.Nanosecond {
				b.Errorf("ScanWords took %v to give up: it read on past the first group", per)
			}
		})
	}
	if w < 1 {
		return
	}
	block := make([]byte, WordsBound(len(sh.obj)))
	n := PackWords(block, sh.obj, lo, w)
	run := func(name string, fn func()) {
		b.Run(sh.name+"/words/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(sh.obj)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(n), "block-B")
		})
	}
	out := make([]byte, len(sh.obj))
	run("scan", func() { ScanWords(sh.obj) })
	run("pack", func() { PackWords(block, sh.obj, lo, w) })
	run("unpack", func() {
		if err := UnpackWords(out, block[:n]); err != nil {
			b.Fatal(err)
		}
	})
	run("check", func() {
		if !CheckWords(block[:n], len(sh.obj)) {
			b.Fatal("valid block refused")
		}
	})
}
