package remote

import (
	"math/rand"
	"testing"
	"time"

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
// ships them raw, on a session with compression off, "compact-lz" shows what compression costs when the link is not the
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

// bfsTuple is the write-back of one bfs-shaped object — a 4 KiB image of
// small int64s, most of them zero — as a full-object tuple in the given
// scheme.
func bfsTuple(b *testing.B, scheme uint8) rdma.WriteReqC {
	b.Helper()
	tuple := fullTuple(0, 0, 0, sparseInt64(benchObjSize, rand.New(rand.NewSource(1))), scheme)
	if tuple.Scheme != scheme {
		b.Fatalf("the bfs-shaped image travels as scheme %d, want %d", tuple.Scheme, scheme)
	}
	return tuple
}

// benchServerReadStored prices what cardsd does for one demand fault of
// a bfs-shaped object its client wrote back compressed: the image goes in
// once as a tuple of the given scheme and is then read in a closed loop
// over net.Pipe by a hand-driven session that only frames the request and
// discards the reply, so nearly all of ns/op is the server's read path
// (decode, store lookup, reply assembly, CRC).
func benchServerReadStored(b *testing.B, scheme uint8) {
	srv := NewServer()
	sess := dialRaw(b, srv, rdma.OptCompress)
	if _, err := sess.write(false, bfsTuple(b, scheme)); err != nil {
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

func BenchmarkServerReadStoredLZ(b *testing.B)    { benchServerReadStored(b, rdma.SchemeLZ) }
func BenchmarkServerReadStoredWords(b *testing.B) { benchServerReadStored(b, rdma.SchemeWords) }

// BenchmarkServerWriteAdmit prices what cardsd does to take one
// compressed write-back of a bfs-shaped object: the same tuple written in
// a closed loop over net.Pipe, as an LZ block — admitted by a full
// validating decode into scratch — and as a bit-packed block — admitted
// by rdma.CheckWords. Either way the bytes are stored as they arrived.
func BenchmarkServerWriteAdmit(b *testing.B) {
	for _, tc := range []struct {
		name   string
		scheme uint8
	}{{"lz", rdma.SchemeLZ}, {"words", rdma.SchemeWords}} {
		b.Run(tc.name, func(b *testing.B) {
			sess := dialRaw(b, NewServer(), rdma.OptCompress)
			tuples := []rdma.WriteReqC{bfsTuple(b, tc.scheme)}
			b.SetBytes(benchObjSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := rdma.EncodeWriteBatchCPooled(0, tuples, false)
				if err != nil {
					b.Fatal(err)
				}
				resp := sess.call(f)
				if resp.Op != rdma.OpAckBatchC {
					b.Fatalf("write answered with %s", resp.Op)
				}
				rdma.PutBuf(resp.Payload)
			}
			b.ReportMetric(float64(len(tuples[0].Data)), "blockB")
		})
	}
}

// BenchmarkServerFaultBurstTCP prices a demand fault that drags a dirty
// eviction with it, as bfs at 25 % local memory produces them: one
// doorbell carrying a bit-packed 4 KiB write-back and a 4 KiB read of
// such an object, answered before the next doorbell, over TCP loopback.
// writes/burst is the server's Write calls per doorbell (1 when the
// burst's replies leave together, 2 when each is flushed on its own);
// ns/op is the whole round trip, client framing included.
func BenchmarkServerFaultBurstTCP(b *testing.B) {
	srv, dial := burstServer(true, nil)
	sess, sconn := dial(b)
	sess.conn.SetDeadline(time.Time{})
	tuples := []rdma.WriteReqC{bfsTuple(b, rdma.SchemeWords)}
	if _, err := sess.write(false, tuples...); err != nil {
		b.Fatal(err)
	}
	reads := []rdma.ReadReq{{DS: 0, Idx: 0, Size: benchObjSize}}
	b.ResetTimer()
	before := sconn.writes.Load()
	for i := 0; i < b.N; i++ {
		w, err := rdma.EncodeWriteBatchCPooled(0, tuples, false)
		if err != nil {
			b.Fatal(err)
		}
		wire, _ := sess.burst(w, rdma.EncodeReadBatchCPooled(0, reads))
		if _, err := sess.conn.Write(wire); err != nil {
			b.Fatal(err)
		}
		for range [2]struct{}{} {
			rdma.PutBuf(sess.recv().Payload)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sconn.writes.Load()-before)/float64(b.N), "writes/burst")
	if _, writes := srv.Counts(); writes != uint64(b.N)+1 {
		b.Fatalf("server applied %d writes, want %d", writes, b.N+1)
	}
}
