package rdma

import "testing"

// BenchmarkLZShapes measures the block codec on the 4 KiB object shapes
// the benchmark's workloads actually ship (lzShapes). benchmark/'s
// ladder compresses one byte ramp, which the codec clears at well over a
// GB/s; bfs objects ran at a fifth of that, and only a per-shape
// benchmark shows it. "ratio" is compressed/raw bytes (1 = declined).
func BenchmarkLZShapes(b *testing.B) {
	for _, sh := range lzShapes() {
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
