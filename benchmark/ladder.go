package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/remote"
	"cards/internal/shardmap"
)

// The ladder measures each layer's public functions in isolation with
// testing.Benchmark: the per-layer costs the end-to-end figures are
// reconciled against. Every rung works on 4 KiB objects, and the batch
// rungs on 32-tuple batches, the sizes the workloads put on the wire.

const ladderBatch = 32

// ladderSink keeps results alive so the compiler cannot drop the calls.
var ladderSink int

// rung is one ladder measurement.
type rung struct {
	nsPerOp, allocsPerOp float64
}

// runLadder runs every rung for benchtime each (a testing -benchtime
// value such as "60ms" or "1x") and returns the ladder metrics.
func runLadder(benchtime string) (metricMap, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	// testing.Benchmark offers no error return, so a rung's failure is
	// carried out here; Benchmark returns only after the function has.
	var failed error
	measure := func(fn func(b *testing.B) error) rung {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			if err := fn(b); err != nil && failed == nil {
				failed = err
			}
		})
		if r.N == 0 {
			return rung{}
		}
		return rung{
			nsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			allocsPerOp: float64(r.MemAllocs) / float64(r.N),
		}
	}
	m := metricMap{}

	// calibration: the host-speed yardstick, no cards code.
	src, dst := make([]byte, objBytes), make([]byte, objBytes)
	m["calib.memcpy4k_ns"] = measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			ladderSink += copy(dst, src)
		}
		return nil
	}).nsPerOp
	m["calib.loopback_rtt_us"] = measure(benchLoopbackEcho).nsPerOp / 1e3

	// farmem
	m["farmem.guard_hit_ns"] = measure(benchGuardHit).nsPerOp
	fault := measure(benchFaultMapStore)
	m["farmem.fault_mapstore_ns"] = fault.nsPerOp
	m["farmem.fault_mapstore_allocs"] = fault.allocsPerOp

	// remote client against an in-process server
	pipe := measure(func(b *testing.B) error { return benchClient(b, dialPipe, false) })
	tcp := measure(func(b *testing.B) error { return benchClient(b, dialTCP, false) })
	m["remote.pipe_read_ns"] = pipe.nsPerOp
	m["remote.tcp_read_ns"] = tcp.nsPerOp
	m["remote.tcp_read_allocs"] = tcp.allocsPerOp
	m["remote.resilient_tcp_read_ns"] = measure(func(b *testing.B) error { return benchClient(b, dialResilientTCP, false) }).nsPerOp
	m["remote.tcp_write_ns"] = measure(func(b *testing.B) error { return benchClient(b, dialTCP, true) }).nsPerOp
	m["kernel.tcp_minus_pipe_ns"] = tcp.nsPerOp - pipe.nsPerOp

	// rdma codec
	codec := ladderCodec()
	var codecAllocs float64
	for _, c := range []struct {
		name string
		fn   func(b *testing.B) error
	}{
		{"rdma.readbatch_encode_ns", codec.encodeReadBatch},
		{"rdma.readbatchc_encode_ns", codec.encodeReadBatchC},
		{"rdma.databatch_decode_ns", codec.decodeDataBatch},
		{"rdma.databatchc_decode_ns", codec.decodeDataBatchC},
		{"rdma.writebatchc_encode_ns", codec.encodeWriteBatchC},
		{"rdma.frame_io_ns", func(b *testing.B) error { return codec.frameIO(b, false) }},
		{"rdma.frame_io_crc_ns", func(b *testing.B) error { return codec.frameIO(b, true) }},
	} {
		r := measure(c.fn)
		m[c.name] = r.nsPerOp
		codecAllocs += r.allocsPerOp
	}
	m["rdma.codec_allocs"] = codecAllocs
	comp, decomp, err := benchLZ(measure)
	if err != nil {
		return nil, err
	}
	m["rdma.lz_compress_mb_s"], m["rdma.lz_decompress_mb_s"] = comp, decomp

	// objectstore
	objs := remote.NewObjectStore()
	objs.Write(0, 0, src)
	m["objectstore.read_ns"] = measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			objs.ReadInto(0, 0, dst)
		}
		return nil
	}).nsPerOp
	w := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			objs.Write(0, uint32(i%256), src)
		}
		return nil
	})
	m["objectstore.write_ns"], m["objectstore.write_allocs"] = w.nsPerOp, w.allocsPerOp
	var epoch uint64 // never restarts: a stale epoch is rejected, not stored
	m["objectstore.write_epoch_ns"] = measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			epoch++
			if !objs.WriteEpoch(1, uint32(i%256), epoch, src) {
				return fmt.Errorf("WriteEpoch rejected a fresh epoch")
			}
		}
		return nil
	}).nsPerOp
	exts := []rdma.Extent{{Off: 64, Len: 8}, {Off: 1024, Len: 8}}
	m["objectstore.write_range_ns"] = measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			objs.WriteRange(0, uint32(i%256), objBytes, exts, src[:16])
		}
		return nil
	}).nsPerOp
	m["objectstore.parallel_read_ns"] = measure(func(b *testing.B) error {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, objBytes)
				for i := 0; i < (b.N+1)/2; i++ {
					objs.ReadInto(0, 0, buf)
				}
			}()
		}
		wg.Wait()
		return nil
	}).nsPerOp

	// shardmap: routing cost over the bare store.
	bare := farmem.NewMapStore()
	if err := bare.WriteObj(0, 0, src); err != nil {
		return nil, err
	}
	bareNS := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if err := bare.ReadObj(0, i%256, dst); err != nil {
				return err
			}
		}
		return nil
	}).nsPerOp
	ss, err := shardmap.NewSharded([]farmem.Store{farmem.NewMapStore(), farmem.NewMapStore()}, shardmap.Options{})
	if err != nil {
		return nil, err
	}
	defer ss.Close()
	shardNS := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if err := ss.ReadObj(0, i%256, dst); err != nil {
				return err
			}
		}
		return nil
	}).nsPerOp
	m["shardmap.read_overhead_ns"] = shardNS - bareNS

	return m, failed
}

// benchLoopbackEcho round-trips 4 KiB over a raw TCP loopback
// connection to an echoing goroutine.
func benchLoopbackEcho(b *testing.B) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the client closes
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	out, in := make([]byte, objBytes), make([]byte, objBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Write(out); err != nil {
			return err
		}
		if _, err := io.ReadFull(c, in); err != nil {
			return err
		}
	}
	return nil
}

// ladderRuntime is a runtime over the in-process MapStore with nObjs
// materialised 4 KiB objects and room for cacheObjs of them.
func ladderRuntime(nObjs, cacheObjs int) (*farmem.Runtime, uint64, error) {
	rt := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: uint64(cacheObjs * objBytes)})
	if _, err := rt.RegisterDS(0, farmem.DSMeta{Name: "ladder", ObjSize: objBytes}); err != nil {
		return nil, 0, err
	}
	if err := rt.SetPlacement(0, farmem.PlaceRemotable); err != nil {
		return nil, 0, err
	}
	addr, err := rt.DSAlloc(0, int64(nObjs*objBytes))
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < nObjs; i++ {
		if _, err := rt.Guard(addr+uint64(i*objBytes), true); err != nil {
			return nil, 0, err
		}
	}
	return rt, addr, nil
}

func benchGuardHit(b *testing.B) error {
	rt, addr, err := ladderRuntime(1, 16)
	if err != nil {
		return err
	}
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Guard(addr, false); err != nil {
			return err
		}
	}
	return nil
}

// benchFaultMapStore is a Guard miss plus the eviction it forces, with
// the in-process MapStore as far tier: the runtime's own share of a
// remote fault.
func benchFaultMapStore(b *testing.B) error {
	const nObjs = 256
	rt, addr, err := ladderRuntime(nObjs, 16)
	if err != nil {
		return err
	}
	defer rt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The stride outruns the 16-object cache, so every access misses.
		if _, err := rt.Guard(addr+uint64((i*37)%nObjs*objBytes), false); err != nil {
			return err
		}
	}
	return nil
}

// ladderConn is a client connection to an in-process remote.Server.
type ladderConn struct {
	store remote.StoreConn
	close func()
}

func ladderServer() *remote.Server {
	srv := remote.NewServer()
	srv.Store.Write(0, 0, make([]byte, objBytes))
	return srv
}

func dialPipe() (*ladderConn, error) {
	srv := ladderServer()
	c1, c2 := net.Pipe()
	go srv.ServeConn(c1)
	cl, err := remote.NewPipelined(c2, remote.PipelineOpts{})
	if err != nil {
		c1.Close()
		c2.Close()
		return nil, err
	}
	return &ladderConn{store: cl, close: func() { cl.Close(); srv.Close() }}, nil
}

func dialTCPWith(dial func(addr string) (remote.StoreConn, error)) (*ladderConn, error) {
	srv := ladderServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl, err := dial(addr)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &ladderConn{store: cl, close: func() { cl.Close(); srv.Close() }}, nil
}

func dialTCP() (*ladderConn, error) {
	return dialTCPWith(func(addr string) (remote.StoreConn, error) {
		return remote.DialPipelined(addr, remote.PipelineOpts{})
	})
}

func dialResilientTCP() (*ladderConn, error) {
	return dialTCPWith(func(addr string) (remote.StoreConn, error) {
		return remote.DialResilient(addr, remote.DialConfig{Timeout: prodTimeout, RetryMax: prodRetryMax})
	})
}

// benchClient times synchronous 4 KiB round trips through a client.
func benchClient(b *testing.B, dial func() (*ladderConn, error), write bool) error {
	c, err := dial()
	if err != nil {
		return err
	}
	defer c.close()
	buf := make([]byte, objBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if write {
			err = c.store.WriteObj(0, 0, buf)
		} else {
			err = c.store.ReadObj(0, 0, buf)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// codecFixtures are the pre-built inputs of the rdma rungs.
type codecFixtures struct {
	reads      []rdma.ReadReq
	writes     []rdma.WriteReqC
	dataBatch  []byte // a DATABATCH payload of ladderBatch objects
	dataBatchC []byte // the same as DATABATCH-C
	object     []byte
}

func ladderCodec() *codecFixtures {
	f := &codecFixtures{object: make([]byte, objBytes)}
	fillPattern(f.object, 0, 1) // incompressible, so every rung moves 4 KiB
	segs := make([][]byte, ladderBatch)
	var builder rdma.DataBatchCBuilder
	for i := 0; i < ladderBatch; i++ {
		f.reads = append(f.reads, rdma.ReadReq{DS: 0, Idx: uint32(i), Size: objBytes})
		f.writes = append(f.writes, rdma.WriteReqC{DS: 0, Idx: uint32(i), Scheme: rdma.SchemeRaw, RawLen: objBytes, Data: f.object})
		segs[i] = f.object
		builder.Add(f.object, false)
	}
	if fr, err := rdma.EncodeDataBatch(1, segs); err == nil {
		f.dataBatch = fr.Payload
	}
	if fr, err := builder.Frame(1); err == nil {
		f.dataBatchC = append([]byte(nil), fr.Payload...)
		rdma.PutBuf(fr.Payload)
	}
	builder.Release()
	return f
}

func (f *codecFixtures) encodeReadBatch(b *testing.B) error {
	for i := 0; i < b.N; i++ {
		fr := rdma.EncodeReadBatchPooled(uint32(i), f.reads)
		rdma.PutBuf(fr.Payload)
	}
	return nil
}

func (f *codecFixtures) encodeReadBatchC(b *testing.B) error {
	for i := 0; i < b.N; i++ {
		fr := rdma.EncodeReadBatchCPooled(uint32(i), f.reads)
		rdma.PutBuf(fr.Payload)
	}
	return nil
}

func (f *codecFixtures) decodeDataBatch(b *testing.B) error {
	if f.dataBatch == nil {
		return fmt.Errorf("DATABATCH fixture did not encode")
	}
	segs := make([][]byte, 0, ladderBatch)
	for i := 0; i < b.N; i++ {
		var err error
		if segs, err = rdma.DecodeDataBatchInto(f.dataBatch, segs); err != nil {
			return err
		}
	}
	ladderSink += len(segs)
	return nil
}

func (f *codecFixtures) decodeDataBatchC(b *testing.B) error {
	if f.dataBatchC == nil {
		return fmt.Errorf("DATABATCH-C fixture did not encode")
	}
	segs := make([]rdma.DataSegC, 0, ladderBatch)
	for i := 0; i < b.N; i++ {
		var err error
		if segs, err = rdma.DecodeDataBatchCInto(f.dataBatchC, segs); err != nil {
			return err
		}
	}
	ladderSink += len(segs)
	return nil
}

func (f *codecFixtures) encodeWriteBatchC(b *testing.B) error {
	for i := 0; i < b.N; i++ {
		fr, err := rdma.EncodeWriteBatchCPooled(uint32(i), f.writes, false)
		if err != nil {
			return err
		}
		rdma.PutBuf(fr.Payload)
	}
	return nil
}

// frameIO writes one 4 KiB frame into a buffer and reads it back with
// a pooled payload, with or without the CRC32C trailer.
func (f *codecFixtures) frameIO(b *testing.B, crc bool) error {
	var buf bytes.Buffer
	fr := rdma.Frame{Op: rdma.OpDataBatch, Tag: 1, Payload: f.object}
	for i := 0; i < b.N; i++ {
		buf.Reset()
		var err error
		var got rdma.Frame
		if crc {
			if err = rdma.WriteFrameCRC(&buf, fr); err == nil {
				got, err = rdma.ReadFrameCRCPooled(&buf)
			}
		} else {
			if err = rdma.WriteFrame(&buf, fr); err == nil {
				got, err = rdma.ReadFramePooled(&buf)
			}
		}
		if err != nil {
			return err
		}
		rdma.PutBuf(got.Payload)
	}
	return nil
}

// benchLZ measures the LZ block codec on a compressible 4 KiB object
// (the byte ramp store-fanin's second data structure holds) and
// returns throughput in MB/s of uncompressed bytes.
func benchLZ(measure func(func(b *testing.B) error) rung) (compress, decompress float64, err error) {
	raw := make([]byte, objBytes)
	fillPattern(raw, 1, 3)
	packed := make([]byte, rdma.CompressBound(len(raw)))
	n, ok := rdma.LZCompress(packed, raw)
	if !ok {
		return 0, 0, fmt.Errorf("LZCompress declined the byte ramp")
	}
	c := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			k, _ := rdma.LZCompress(packed, raw)
			ladderSink += k
		}
		return nil
	})
	out := make([]byte, len(raw))
	d := measure(func(b *testing.B) error {
		for i := 0; i < b.N; i++ {
			if err := rdma.LZDecompress(out, packed[:n]); err != nil {
				return err
			}
		}
		return nil
	})
	mbps := func(r rung) float64 { return ratio(float64(len(raw))*1e3, r.nsPerOp) }
	return mbps(c), mbps(d), nil
}
