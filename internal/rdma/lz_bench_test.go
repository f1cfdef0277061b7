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
// The shapes that bit-pack (words.go) also get words/scan, words/pack,
// words/unpack and words/check, each over a corpus of distinct objects
// of the shape ("block-B" is the mean packed size); the two
// that must cost the scan nothing get scan/bail, which fails if ScanWords
// needs more than its first 64 bytes or 20 ns to give up on a 4 KiB
// object (a full pass is several times that).
func BenchmarkLZShapes(b *testing.B) {
	for idx, sh := range lzShapes() {
		benchWordsShape(b, idx, sh)
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

// wordsBenchCorpus is how many distinct objects of a shape the words/*
// rows cycle through. On one object repeated, the branch predictor learns
// the object — which words are zero — and a kernel that branches on the
// data reads 3x faster than it runs in a workload, where every object is
// new (a branchy PackWords: 1.1 µs here on one bfs-shaped object, 3.8 µs
// over 256 of them, 4.1 µs sampled inside the bfs benchmark).
const wordsBenchCorpus = 256

func benchWordsShape(b *testing.B, idx int, sh lzShape) {
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
	if _, w := ScanWords(sh.obj); w < 1 {
		return
	}
	// Every object of the corpus packs, each at its own (s, w).
	objs := make([][]byte, wordsBenchCorpus)
	blocks := make([][]byte, wordsBenchCorpus)
	sw := make([][2]int, wordsBenchCorpus)
	total := 0
	for i := range objs {
		objs[i] = lzShapesFrom(uint64(2*i + 1))[idx].obj
		s, w := ScanWords(objs[i])
		sw[i] = [2]int{s, w}
		blocks[i] = make([]byte, WordsBound(len(objs[i])))
		blocks[i] = blocks[i][:PackWords(blocks[i], objs[i], s, w)]
		total += len(blocks[i])
	}
	run := func(name string, fn func(i int)) {
		b.Run(sh.name+"/words/"+name, func(b *testing.B) {
			b.SetBytes(int64(len(sh.obj)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(i % wordsBenchCorpus)
			}
			b.ReportMetric(float64(total)/wordsBenchCorpus, "block-B")
		})
	}
	block := make([]byte, WordsBound(len(sh.obj)))
	out := make([]byte, len(sh.obj))
	run("scan", func(i int) { ScanWords(objs[i]) })
	run("pack", func(i int) { PackWords(block, objs[i], sw[i][0], sw[i][1]) })
	run("unpack", func(i int) {
		if err := UnpackWords(out, blocks[i]); err != nil {
			b.Fatal(err)
		}
	})
	run("check", func(i int) {
		if !CheckWords(blocks[i], len(out)) {
			b.Fatal("valid block refused")
		}
	})
}
