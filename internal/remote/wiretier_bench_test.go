package remote

import (
	"math/rand"
	"testing"

	"cards/internal/obs"
	"cards/internal/rdma"
)

func benchServerRamp(b *testing.B) string {
	b.Helper()
	srv := NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	buf := make([]byte, benchObjSize)
	for j := range buf {
		buf[j] = byte(j)
	}
	srv.Store.Write(0, 0, buf)
	return addr
}

// BenchmarkWireTierReadTCP prices the adaptive compressor on a clean
// loopback link, ramp (non-zero, LZ-compressible) payloads: "compact"
// ships them raw through the reserved-header DATABATCH-C fast path,
// "compact-lz" shows what compression costs when the link is not the
// bottleneck (the wire sweep shows the inverse trade).
func BenchmarkWireTierReadTCP(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts PipelineOpts
	}{
		{"compact", PipelineOpts{Window: 32, Compression: "off"}},
		{"compact-lz", PipelineOpts{Window: 32}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			addr := benchServerRamp(b)
			reg := obs.NewRegistry()
			o := tc.opts
			o.Obs = reg
			cl, err := DialPipelined(addr, o)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			benchPipelinedRead(b, cl)
			snap := reg.Snapshot()
			if h := snap.Histogram(MetricClientBatchSize); h.Count > 0 {
				b.ReportMetric(float64(h.Sum)/float64(h.Count), "reads/batch")
			}
			var wire uint64
			for k, v := range snap.Counters {
				if len(k) >= len(MetricWireBytes) && k[:len(MetricWireBytes)] == MetricWireBytes {
					wire += v
				}
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
		})
	}
}

// BenchmarkServerReadStoredLZ prices what cardsd does for one demand
// fault of a bfs-shaped object its client wrote back compressed: a 4 KiB
// sparse-int64 image goes in once as an LZ tuple and is then read in a
// closed loop over net.Pipe by a hand-driven session that only frames
// the request and discards the reply, so nearly all of ns/op is the
// server's read path (decode, store lookup, reply assembly, CRC).
func BenchmarkServerReadStoredLZ(b *testing.B) {
	srv := NewServer()
	sess := dialRaw(b, srv, rdma.OptCompress)
	img := sparseInt64(benchObjSize, rand.New(rand.NewSource(1)))
	tuple := fullTuple(0, 0, 0, img, true)
	if tuple.Scheme != rdma.SchemeLZ {
		b.Fatal("the bfs-shaped image did not compress")
	}
	if _, err := sess.write(false, tuple); err != nil {
		b.Fatal(err)
	}
	reqs := []rdma.ReadReq{{DS: 0, Idx: 0, Size: benchObjSize}}
	b.SetBytes(benchObjSize)
	b.ReportAllocs()
	b.ResetTimer()
	var wire int
	for i := 0; i < b.N; i++ {
		resp := sess.call(rdma.EncodeReadBatchCPooled(0, reqs))
		if resp.Op != rdma.OpDataBatchC {
			b.Fatalf("read answered with %s", resp.Op)
		}
		wire = len(resp.Payload)
		rdma.PutBuf(resp.Payload)
	}
	b.ReportMetric(float64(wire), "replyB")
}
