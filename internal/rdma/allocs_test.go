package rdma

import (
	"bufio"
	"bytes"
	"testing"
)

// stampedReadRoundTrip is one full epoch-stamped read round trip over
// in-memory wire buffers — client encode, checksummed framing both
// ways, server decode + staged gather + stamp, client segment decode —
// with or without the trace block of a traced session.
type stampedReadRoundTrip struct {
	t        *testing.T
	traced   bool
	reqs     []ReadReq
	obj      []byte
	c2s, s2c bytes.Buffer
	rd       bytes.Reader
	br       *bufio.Reader // the connection's reader, as both ends hold one
	fr       *FrameReader
	decReqs  []ReadReq
	segs     []DataSegC
	b        DataBatchCBuilder
}

func (r *stampedReadRoundTrip) iter() {
	t := r.t
	// Client: issue a stamped READBATCH-C.
	req := EncodeReadBatchCPooled(42, r.reqs)
	req.Op |= EpochBit
	if r.traced {
		req.SetTraceCtx(0xA11CE, 0xB0B, true)
	}
	r.c2s.Reset()
	if err := WriteFrameCRC(&r.c2s, req); err != nil {
		t.Fatal(err)
	}
	PutBuf(req.Payload)

	// Server: decode the batch, gather and stamp the reply.
	r.rd.Reset(r.c2s.Bytes())
	r.br.Reset(&r.rd)
	fr, err := r.fr.Read()
	if err != nil {
		t.Fatal(err)
	}
	if id, _, sampled := fr.TraceCtx(); r.traced && (id != 0xA11CE || !sampled) {
		t.Fatalf("trace ctx lost on the wire: id %#x sampled %v", id, sampled)
	}
	if r.decReqs, err = DecodeReadBatchCInto(fr.Payload, r.decReqs); err != nil {
		t.Fatal(err)
	}
	r.b.Reset()
	r.b.BeginEpoch()
	for i, q := range r.decReqs {
		s := r.b.Stage(int(q.Size))
		copy(s, r.obj)
		r.b.Add(s, false)
		r.b.Stamp(uint64(100 + i))
	}
	PutBuf(fr.Payload)
	out, err := r.b.Frame(fr.Tag)
	if err != nil {
		t.Fatal(err)
	}
	if r.traced {
		out.SetServerStamp(123456, 3, 17)
	}
	r.s2c.Reset()
	if err := WriteFrameCRC(&r.s2c, out); err != nil {
		t.Fatal(err)
	}
	PutBuf(out.Payload)

	// Client: decode the stamped reply.
	r.rd.Reset(r.s2c.Bytes())
	r.br.Reset(&r.rd)
	if fr, err = r.fr.Read(); err != nil {
		t.Fatal(err)
	}
	if _, q, sv := fr.ServerStamp(); r.traced && (q != 3 || sv != 17) {
		t.Fatalf("server stamp lost on the wire: queue %d service %d", q, sv)
	}
	if r.segs, err = DecodeDataSegsInto(fr.Payload, r.segs, fr.Op&EpochBit != 0); err != nil {
		t.Fatal(err)
	}
	if len(r.segs) != len(r.reqs) || r.segs[0].RawLen != 256 || r.segs[2].Epoch != 102 {
		t.Fatalf("bad reply: %d segments, %+v", len(r.segs), r.segs)
	}
	PutBuf(fr.Payload)
}

func (r *stampedReadRoundTrip) check(what string) {
	defer r.b.Release()
	// Warm the size-class free lists and grow the wire buffers before
	// measuring — first-use allocations are expected and amortized.
	for i := 0; i < 8; i++ {
		r.iter()
	}
	if avg := testing.AllocsPerRun(200, r.iter); avg >= 1 {
		r.t.Fatalf("steady-state %s allocates %.2f times per round trip, want ~0", what, avg)
	}
}

func newStampedReadRoundTrip(t *testing.T, traced bool) *stampedReadRoundTrip {
	br := bufio.NewReader(nil)
	return &stampedReadRoundTrip{
		t: t, traced: traced, br: br, fr: NewFrameReader(br, traced),
		reqs: []ReadReq{{DS: 1, Idx: 0, Size: 256}, {DS: 1, Idx: 1, Size: 256}, {DS: 2, Idx: 7, Size: 64}},
		obj:  bytes.Repeat([]byte{0xCD}, 256),
	}
}

// TestReadPathSteadyStateAllocFree pins the zero-allocation property of
// the pooled data path for replicated reads: once the frame buffer pool
// and wire buffers are warm, a full stamped READBATCH-C round trip must
// not touch the heap — the epoch modifier rides the same pooled builder
// and decoder as a plain read. A regression here puts the GC back on
// the per-frame critical path, which is exactly the bandwidth tax the
// pool exists to remove.
func TestReadPathSteadyStateAllocFree(t *testing.T) {
	newStampedReadRoundTrip(t, false).check("stamped read path")
}

// TestTracedReadPathSteadyStateAllocFree is the same guard for a
// traced session: the fixed 20-byte trace block — span context on
// the request, server stamp on the reply — must ride every tagged frame
// without putting the heap back on the critical path. Tracing is always
// on once negotiated (sampling only gates span *emission*), so an
// allocation here taxes every op, not just the sampled ones.
func TestTracedReadPathSteadyStateAllocFree(t *testing.T) {
	newStampedReadRoundTrip(t, true).check("traced read path")
}

// TestCompactReadPathSteadyStateAllocFree pins the zero-allocation
// property of the compact read path: delta-encoded READBATCH-C,
// server-side gather through a reused DataBatchCBuilder (including the
// LZ compression pass and its pooled hash table, and the verbatim
// append of images the store already holds in wire form), and
// client-side segment decode + decompression into a caller buffer.
// Compression must not put the heap back on the per-frame critical path.
// The same batch is also built with compression off — every object
// added raw with tryCompress false, a stored block expanded, only the
// zero image appended in wire form — as a plain session's reply is: the
// one assembly path serves it without touching the heap either.
func TestCompactReadPathSteadyStateAllocFree(t *testing.T) {
	reqs := []ReadReq{
		{DS: 1, Idx: 10, Size: 256},
		{DS: 1, Idx: 11, Size: 256},
		{DS: 2, Idx: 7, Size: 256},
		{DS: 2, Idx: 8, Size: 256},
		{DS: 2, Idx: 9, Size: 256},
		{DS: 2, Idx: 10, Size: 256},
	}
	objs := [][]byte{
		bytes.Repeat([]byte{0xCD}, 256),              // compressible
		make([]byte, 256),                            // zero
		bytes.Repeat([]byte("ab4kZ!dDqR91_xw."), 16), // mildly compressible
		bytes.Repeat([]byte("stored as a block"), 16)[:256],
		make([]byte, 256),
		lzShapes()[0].obj[:256], // small int64s: bit-packed
	}
	// The last two come out of the store in wire form: an LZ block and a
	// zero image, appended without a compression or zero-detection pass.
	block := make([]byte, CompressBound(256))
	bn, ok := LZCompress(block, objs[3])
	if !ok {
		t.Fatal("stored image did not compress")
	}
	stored := map[int]struct {
		scheme uint8
		wire   []byte
	}{3: {SchemeLZ, block[:bn]}, 4: {SchemeZero, nil}}

	var c2s, s2c bytes.Buffer
	var rd bytes.Reader
	decReqs := make([]ReadReq, 0, len(reqs))
	segs := make([]DataSegC, 0, len(reqs))
	dst := make([]byte, 256)
	var b DataBatchCBuilder
	defer b.Release()

	iter := func(compress bool) {
		// Client: issue a compact READBATCH.
		req := EncodeReadBatchCPooled(42, reqs)
		c2s.Reset()
		if err := WriteFrameCRC(&c2s, req); err != nil {
			t.Fatal(err)
		}
		PutBuf(req.Payload)

		// Server: decode, stage each object, compress adaptively (or not
		// at all).
		rd.Reset(c2s.Bytes())
		fr, err := ReadFrameCRCPooled(&rd)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		decReqs, derr = DecodeReadBatchCInto(fr.Payload, decReqs)
		if derr != nil {
			t.Fatal(derr)
		}
		b.Reset()
		for i, r := range decReqs {
			s := b.Stage(int(r.Size))
			if st, ok := stored[i]; ok && (compress || st.scheme == SchemeZero) {
				b.AddWire(st.scheme, int(r.Size), s[:copy(s, st.wire)])
				continue
			}
			copy(s, objs[i])
			b.Add(s, compress)
		}
		PutBuf(fr.Payload)
		out, err := b.Frame(fr.Tag)
		if err != nil {
			t.Fatal(err)
		}
		s2c.Reset()
		if err := WriteFrameCRC(&s2c, out); err != nil {
			t.Fatal(err)
		}
		PutBuf(out.Payload)

		// Client: decode the reply, materializing each object.
		rd.Reset(s2c.Bytes())
		fr, err = ReadFrameCRCPooled(&rd)
		if err != nil {
			t.Fatal(err)
		}
		segs, derr = DecodeDataBatchCInto(fr.Payload, segs)
		if derr != nil {
			t.Fatal(derr)
		}
		if len(segs) != len(reqs) {
			t.Fatalf("bad reply: %d segments", len(segs))
		}
		for i, s := range segs {
			if !compress && SchemePacked(s.Scheme) {
				t.Fatalf("segment %d is packed (scheme %d) with compression off", i, s.Scheme)
			}
			d := dst[:s.RawLen]
			switch s.Scheme {
			case SchemeZero:
				clear(d)
			case SchemeRaw:
				copy(d, s.Data)
			case SchemeLZ:
				if err := LZDecompress(d, s.Data); err != nil {
					t.Fatal(err)
				}
			case SchemeWords:
				if err := UnpackWords(d, s.Data); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(d, objs[i]) {
				t.Fatalf("segment %d corrupted", i)
			}
		}
		PutBuf(fr.Payload)
	}

	for _, compress := range []bool{true, false} {
		for i := 0; i < 8; i++ {
			iter(compress)
		}
		if avg := testing.AllocsPerRun(200, func() { iter(compress) }); avg != 0 {
			t.Fatalf("steady-state compact read path (compress=%v) allocates %.2f times per round trip, want 0", compress, avg)
		}
	}
}

// TestRangeWritePathSteadyStateAllocFree pins the zero-allocation
// property of the dirty-range write-back path: the client compresses
// extent bytes through pooled scratch, encodes a stamped WRITEBATCH-C
// with range tuples, and the server decodes into reused scratch and
// applies the ranges read-modify-write. This is the steady-state
// eviction path — one allocation here taxes every dirty write-back.
func TestRangeWritePathSteadyStateAllocFree(t *testing.T) {
	const objSize = 1024
	stored := make([]byte, objSize)
	extBytes := bytes.Repeat([]byte{0x42}, 96)
	exts := []Extent{{Off: 16, Len: 32}, {Off: 256, Len: 64}}

	var c2s, s2c bytes.Buffer
	var rd bytes.Reader
	reqsC := make([]WriteReqC, 2)
	decReqs := make([]WriteReqC, 0, 2)
	decExts := make([]Extent, 0, 8)
	ackScratch := make([]uint64, 0, 1)
	epoch := uint64(1)

	iter := func() {
		epoch++
		// Client: one range tuple (compressed through pooled scratch
		// when it pays) and one full-object zero tuple.
		scratch := GetBuf(CompressBound(len(extBytes)))
		data := extBytes
		scheme := SchemeRaw
		if n, ok := LZCompress(scratch, extBytes); ok && n < len(extBytes) {
			data = scratch[:n]
			scheme = SchemeLZ
		}
		reqsC[0] = WriteReqC{DS: 1, Idx: 3, Epoch: epoch, ObjSize: objSize,
			Extents: exts, Scheme: scheme, RawLen: uint32(len(extBytes)), Data: data}
		reqsC[1] = WriteReqC{DS: 1, Idx: 4, Epoch: epoch, Scheme: SchemeZero, RawLen: objSize}
		fr, err := EncodeWriteBatchCPooled(7, reqsC, true)
		if err != nil {
			t.Fatal(err)
		}
		PutBuf(scratch)
		c2s.Reset()
		if err := WriteFrameCRC(&c2s, fr); err != nil {
			t.Fatal(err)
		}
		PutBuf(fr.Payload)

		// Server: decode and apply read-modify-write.
		rd.Reset(c2s.Bytes())
		in, err := ReadFrameCRCPooled(&rd)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		decReqs, decExts, derr = DecodeWriteBatchCInto(in.Payload, decReqs, decExts, true)
		if derr != nil {
			t.Fatal(derr)
		}
		for i := range decReqs {
			r := &decReqs[i]
			if r.Extents == nil {
				continue
			}
			raw := GetBuf(int(r.RawLen))
			switch r.Scheme {
			case SchemeRaw:
				copy(raw, r.Data)
			case SchemeLZ:
				if err := LZDecompress(raw, r.Data); err != nil {
					t.Fatal(err)
				}
			}
			off := 0
			for _, e := range r.Extents {
				copy(stored[e.Off:e.Off+e.Len], raw[off:])
				off += int(e.Len)
			}
			PutBuf(raw)
		}
		PutBuf(in.Payload)
		ack := EncodeAckBatchC(in.Tag, len(decReqs), nil)
		s2c.Reset()
		if err := WriteFrameCRC(&s2c, ack); err != nil {
			t.Fatal(err)
		}
		PutBuf(ack.Payload)

		// Client: decode the ack.
		rd.Reset(s2c.Bytes())
		in, err = ReadFrameCRCPooled(&rd)
		if err != nil {
			t.Fatal(err)
		}
		count, rej, any, derr2 := DecodeAckBatchC(in.Payload, ackScratch)
		if derr2 != nil || count != 2 || any {
			t.Fatalf("ack: count=%d any=%v err=%v", count, any, derr2)
		}
		ackScratch = rej
		PutBuf(in.Payload)
	}

	for i := 0; i < 8; i++ {
		iter()
	}
	if avg := testing.AllocsPerRun(200, iter); avg >= 1 {
		t.Fatalf("steady-state range-write path allocates %.2f times per round trip, want ~0", avg)
	}
	if !bytes.Equal(stored[16:48], extBytes[:32]) || !bytes.Equal(stored[256:320], extBytes[32:96]) {
		t.Fatalf("range apply corrupted the object")
	}
}

// TestLZCodecSteadyStateAllocFree pins the codec itself: once the table
// pool is warm, compressing and decompressing any shipped object shape —
// the one the compressor declines included — touches no heap.
func TestLZCodecSteadyStateAllocFree(t *testing.T) {
	for _, sh := range lzShapes() {
		comp := make([]byte, CompressBound(len(sh.obj)))
		out := make([]byte, len(sh.obj))
		iter := func() {
			n, ok := LZCompress(comp, sh.obj)
			if !ok {
				return
			}
			if err := LZDecompress(out, comp[:n]); err != nil {
				t.Fatal(err)
			}
		}
		iter()
		if n := testing.AllocsPerRun(200, iter); n != 0 {
			t.Fatalf("%s: LZCompress+LZDecompress allocate %.1f times per object, want 0", sh.name, n)
		}
	}
}

// TestWordsCodecSteadyStateAllocFree is the same pin for the bit-packed
// codec: scanning, packing, checking and unpacking touch no heap, on the
// shapes that pack and (the scan alone) on those that do not.
func TestWordsCodecSteadyStateAllocFree(t *testing.T) {
	for _, sh := range append(lzShapes(), wordsShapes()...) {
		block := make([]byte, WordsBound(len(sh.obj)))
		out := make([]byte, len(sh.obj))
		iter := func() {
			lo, w := ScanWords(sh.obj)
			if w < 1 {
				return
			}
			n := PackWords(block, sh.obj, lo, w)
			if !CheckWords(block[:n], len(out)) {
				t.Fatal("packed block refused")
			}
			if err := UnpackWords(out, block[:n]); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(200, iter); n != 0 {
			t.Fatalf("%s: scan+pack+check+unpack allocate %.1f times per object, want 0", sh.name, n)
		}
	}
}
