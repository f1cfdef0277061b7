package rdma

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestBitStreamRoundTrip(t *testing.T) {
	buf := make([]byte, 256)
	w := NewBitWriter(buf)
	w.WriteBits(0b101, 3)
	w.WriteBit(true)
	w.Uvarint(0)
	w.Uvarint(15)
	w.Uvarint(16)
	w.Uvarint(1<<64 - 1)
	w.Svarint(-1)
	w.Svarint(1 << 40)
	w.Svarint(-(1 << 40))
	w.Align()
	copy(w.Bytes(3), []byte{0xDE, 0xAD, 0xBF})
	w.Uvarint(7)
	p, err := w.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}

	r := NewBitReader(p)
	if got := r.ReadBits(3); got != 0b101 {
		t.Fatalf("bits: got %b", got)
	}
	if !r.ReadBit() {
		t.Fatalf("bit: got false")
	}
	for _, want := range []uint64{0, 15, 16, 1<<64 - 1} {
		if got := r.Uvarint(); got != want {
			t.Fatalf("uvarint: got %d want %d", got, want)
		}
	}
	for _, want := range []int64{-1, 1 << 40, -(1 << 40)} {
		if got := r.Svarint(); got != want {
			t.Fatalf("svarint: got %d want %d", got, want)
		}
	}
	r.Align()
	if got := r.Bytes(3); !bytes.Equal(got, []byte{0xDE, 0xAD, 0xBF}) {
		t.Fatalf("bytes: got %x", got)
	}
	if got := r.Uvarint(); got != 7 {
		t.Fatalf("trailing uvarint: got %d", got)
	}
	r.Align()
	if !r.Done() {
		t.Fatalf("stream not fully consumed: %v", r.Err())
	}
}

func TestBitStreamOverflowAndUnderrun(t *testing.T) {
	w := NewBitWriter(make([]byte, 2))
	w.Uvarint(1 << 60) // 16 groups > 2 bytes
	if w.Err() == nil {
		t.Fatalf("overflow not detected")
	}

	r := NewBitReader([]byte{0xFF}) // continuation bit set, stream ends
	r.Uvarint()
	if r.Err() == nil {
		t.Fatalf("underrun not detected")
	}

	// Non-zero padding bits are malformed (cannot come from a writer).
	r = NewBitReader([]byte{0b1000_0001})
	r.ReadBits(1)
	r.Align()
	if r.Err() == nil {
		t.Fatalf("dirty padding not detected")
	}
}

func TestLZRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := [][]byte{
		bytes.Repeat([]byte{0xAA}, 4096),
		bytes.Repeat([]byte("taxi-row:pickup,dropoff,fare;"), 140),
		append(bytes.Repeat([]byte{0}, 2000), bytes.Repeat([]byte{7, 7, 9}, 600)...),
	}
	// A long match run with length extensions in both nibbles.
	long := make([]byte, 8192)
	copy(long, []byte("seed block"))
	cases = append(cases, long)
	// Structured but noisy: repeated records with varying fields.
	rec := make([]byte, 0, 4096)
	for i := 0; len(rec) < 4000; i++ {
		rec = append(rec, []byte("record=")...)
		rec = append(rec, byte(i), byte(i>>8), byte(rng.Intn(4)))
	}
	cases = append(cases, rec)

	for ci, src := range cases {
		dst := make([]byte, CompressBound(len(src)))
		n, ok := LZCompress(dst, src)
		if !ok {
			t.Fatalf("case %d: compressible input reported incompressible", ci)
		}
		if n >= len(src) {
			t.Fatalf("case %d: no gain (%d >= %d)", ci, n, len(src))
		}
		out := make([]byte, len(src))
		if err := LZDecompress(out, dst[:n]); err != nil {
			t.Fatalf("case %d: decompress: %v", ci, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("case %d: round trip mismatch", ci)
		}
	}
}

func TestLZIncompressibleBailsOut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := make([]byte, 4096)
	rng.Read(src)
	dst := make([]byte, CompressBound(len(src)))
	if n, ok := LZCompress(dst, src); ok && n >= len(src) {
		t.Fatalf("compressor returned ok with no gain: %d", n)
	}
}

func TestLZDecompressRejectsForgedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := bytes.Repeat([]byte("abcdefgh"), 512)
	comp := make([]byte, CompressBound(len(src)))
	n, ok := LZCompress(comp, src)
	if !ok {
		t.Fatalf("seed compress failed")
	}
	comp = comp[:n]
	dst := make([]byte, len(src))
	// Truncations, bit flips and random garbage must fail cleanly or
	// produce exactly len(dst) bytes — never panic or over-read.
	for i := 0; i < 2000; i++ {
		m := append([]byte(nil), comp...)
		switch i % 3 {
		case 0:
			m = m[:rng.Intn(len(m))]
		case 1:
			m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
		case 2:
			m = make([]byte, rng.Intn(64))
			rng.Read(m)
		}
		_ = LZDecompress(dst, m) // must not panic
	}
}

// TestIsAllZero: ScanWords' zero verdict, which is what stands between an
// object and SchemeZero, at whole-group and odd sizes.
func TestIsAllZero(t *testing.T) {
	isAllZero := func(b []byte) bool { _, w := ScanWords(b); return w == 0 }
	for _, n := range []int{0, 1, 63, 64, 100, 4096} {
		b := make([]byte, n)
		if !isAllZero(b) {
			t.Fatalf("zero buffer of %d bytes not detected", n)
		}
		if n > 0 {
			b[n-1] = 1
			if isAllZero(b) {
				t.Fatalf("trailing non-zero missed at %d bytes", n)
			}
		}
	}
}

func TestReadBatchCRoundTrip(t *testing.T) {
	cases := [][]ReadReq{
		{{DS: 1, Idx: 0, Size: 4096}},
		{{DS: 1, Idx: 10, Size: 4096}, {DS: 1, Idx: 11, Size: 4096}, {DS: 1, Idx: 12, Size: 4096}},
		{{DS: 3, Idx: 500, Size: 64}, {DS: 3, Idx: 2, Size: 64}, {DS: 7, Idx: 1 << 30, Size: 1024}},
		{{DS: 0, Idx: 1<<32 - 1, Size: 0}, {DS: 0, Idx: 0, Size: MaxFrame}},
	}
	for ci, reqs := range cases {
		fr := EncodeReadBatchCPooled(9, reqs)
		if fr.Op != OpReadBatchC || fr.Tag != 9 {
			t.Fatalf("case %d: bad frame %v", ci, fr.Op)
		}
		got, err := DecodeReadBatchCInto(fr.Payload, nil)
		if err != nil {
			t.Fatalf("case %d: decode: %v", ci, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("case %d: count %d != %d", ci, len(got), len(reqs))
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				t.Fatalf("case %d tuple %d: %+v != %+v", ci, i, got[i], reqs[i])
			}
		}
		PutBuf(fr.Payload)
	}
}

func TestReadBatchCSequentialScanIsTiny(t *testing.T) {
	// The motivating case: 32 sequential same-size reads of one DS must
	// cost ~1 byte per tuple against 12 fixed-width bytes.
	reqs := make([]ReadReq, 32)
	for i := range reqs {
		reqs[i] = ReadReq{DS: 2, Idx: uint32(100 + i), Size: 4096}
	}
	fr := EncodeReadBatchCPooled(1, reqs)
	defer PutBuf(fr.Payload)
	if len(fr.Payload) > 40 {
		t.Fatalf("sequential scan encoded to %d bytes (want <= 40); fixed-width is %d",
			len(fr.Payload), 4+12*len(reqs))
	}
}

func TestDataBatchCBuilderRoundTrip(t *testing.T) {
	var b DataBatchCBuilder
	defer b.Release()
	b.Reset()

	zero := make([]byte, 512)
	text := bytes.Repeat([]byte("compressible body "), 100)
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 777)
	rng.Read(noise)

	if s, _ := b.Add(zero, true); s != SchemeZero {
		t.Fatalf("zero object got scheme %d", s)
	}
	if s, _ := b.Add(text, true); s != SchemeLZ {
		t.Fatalf("text got scheme %d", s)
	}
	if s, _ := b.Add(noise, true); s != SchemeRaw {
		t.Fatalf("noise got scheme %d", s)
	}
	if s, _ := b.Add(text, false); s != SchemeRaw {
		t.Fatalf("compression-off add got scheme %d", s)
	}
	ints := lzShapes()[0].obj[:1024] // small int64s: bit-packed, from anywhere or from the Stage slot
	if s, _ := b.Add(ints, true); s != SchemeWords {
		t.Fatalf("small ints got scheme %d", s)
	}
	staged := b.Stage(len(ints))
	copy(staged, ints)
	if s, _ := b.Add(staged, true); s != SchemeWords {
		t.Fatalf("staged small ints got scheme %d", s)
	}
	if s, _ := b.Add(ints, false); s != SchemeRaw {
		t.Fatalf("compression-off add of small ints got scheme %d", s)
	}
	// Images already in wire form: a block handed over from elsewhere, a
	// block sitting in the Stage slot, and a zero image.
	block := make([]byte, CompressBound(len(text)))
	bn, _ := LZCompress(block, text)
	b.AddWire(SchemeLZ, len(text), block[:bn])
	slot := b.Stage(len(text))
	b.AddWire(SchemeLZ, len(text), slot[:copy(slot, block[:bn])])
	b.AddWire(SchemeZero, len(zero), nil)
	lo, w := ScanWords(ints)
	b.AddWire(SchemeWords, len(ints), block[:PackWords(block, ints, lo, w)])

	fr, err := b.Frame(4)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	defer PutBuf(fr.Payload)
	segs, err := DecodeDataBatchCInto(fr.Payload, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(segs) != 11 {
		t.Fatalf("got %d segments", len(segs))
	}
	for i, want := range [][]byte{zero, text, noise, text, ints, ints, ints, text, text, zero, ints} {
		s := segs[i]
		if int(s.RawLen) != len(want) {
			t.Fatalf("seg %d rawLen %d != %d", i, s.RawLen, len(want))
		}
		out := make([]byte, s.RawLen)
		switch s.Scheme {
		case SchemeZero:
		case SchemeRaw:
			copy(out, s.Data)
		case SchemeLZ:
			if err := LZDecompress(out, s.Data); err != nil {
				t.Fatalf("seg %d decompress: %v", i, err)
			}
		case SchemeWords:
			if err := UnpackWords(out, s.Data); err != nil {
				t.Fatalf("seg %d unpack: %v", i, err)
			}
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("seg %d data mismatch", i)
		}
	}
}

// TestDataBatchCBuilderStampedRoundTrip: a BeginEpoch batch comes out
// as DATABATCH-C|EpochBit, every segment reports the epoch it was
// stamped with (0 without a Stamp call, and on a zero-length probe),
// the bytes survive every scheme, and the two reply forms do not parse
// as each other.
func TestDataBatchCBuilderStampedRoundTrip(t *testing.T) {
	var b DataBatchCBuilder
	defer b.Release()
	text := bytes.Repeat([]byte("compressible body "), 100)
	objs := [][]byte{make([]byte, 512), text, {1, 2, 3}, nil, text}
	epochs := []uint64{7, 1<<63 + 5, 0, 42, 9}
	b.Reset()
	b.BeginEpoch()
	for i, o := range objs {
		b.Add(o, i != 4)
		if epochs[i] != 0 {
			b.Stamp(epochs[i])
		}
	}
	fr, err := b.Frame(4)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	defer PutBuf(fr.Payload)
	if fr.Op != OpDataBatchC|EpochBit {
		t.Fatalf("stamped batch encoded as %s", fr.Op)
	}
	segs, err := DecodeDataSegsInto(fr.Payload, nil, true)
	if err != nil || len(segs) != len(objs) {
		t.Fatalf("decode: %d segments, %v", len(segs), err)
	}
	for i, s := range segs {
		out := make([]byte, s.RawLen)
		switch s.Scheme {
		case SchemeRaw:
			copy(out, s.Data)
		case SchemeLZ:
			if err := LZDecompress(out, s.Data); err != nil {
				t.Fatalf("seg %d decompress: %v", i, err)
			}
		}
		if s.Epoch != epochs[i] || !bytes.Equal(out, objs[i]) {
			t.Fatalf("seg %d: epoch %d (want %d), %d bytes, match=%v", i, s.Epoch, epochs[i], len(out), bytes.Equal(out, objs[i]))
		}
	}
	if _, err := DecodeDataBatchCInto(fr.Payload, nil); err == nil {
		t.Fatal("a stamped payload parsed as an un-stamped one")
	}
	// Reset returns the builder to the plain form.
	b.Reset()
	b.Add(text, false)
	plain, err := b.Frame(5)
	if err != nil || plain.Op != OpDataBatchC {
		t.Fatalf("after Reset: %s, %v", plain.Op, err)
	}
	defer PutBuf(plain.Payload)
	if _, err := DecodeDataSegsInto(plain.Payload, nil, true); err == nil {
		t.Fatal("an un-stamped payload parsed as a stamped one")
	}
}

func TestWriteBatchCRoundTrip(t *testing.T) {
	body := bytes.Repeat([]byte("epoch body "), 40)
	comp := make([]byte, CompressBound(len(body)))
	n, ok := LZCompress(comp, body)
	if !ok {
		t.Fatalf("seed compress failed")
	}
	for _, epoch := range []bool{false, true} {
		reqs := []WriteReqC{
			{DS: 1, Idx: 5, Epoch: 3, Scheme: SchemeRaw, RawLen: 16,
				Data: []byte("full object 16bb")},
			{DS: 1, Idx: 6, Epoch: 9, Scheme: SchemeZero, RawLen: 4096},
			{DS: 2, Idx: 0, Epoch: 1<<62 + 1, Scheme: SchemeLZ, RawLen: uint32(len(body)),
				Data: comp[:n]},
			{DS: 2, Idx: 1, Epoch: 2, ObjSize: 4096, Scheme: SchemeRaw, RawLen: 12,
				Extents: []Extent{{Off: 8, Len: 4}, {Off: 96, Len: 8}},
				Data:    []byte("rangedbytes!")},
			{DS: 2, Idx: 2, Epoch: 4, Scheme: SchemeWords, RawLen: 128,
				Data: []byte{0, 2, 0x81, 0x00, 0x0E}},
			{DS: 2, Idx: 3, Epoch: 5, ObjSize: 4096, Scheme: SchemeWords, RawLen: 64,
				Extents: []Extent{{Off: 640, Len: 64}},
				Data:    []byte{3, 1, 0x10, 0x01}},
		}
		fr, err := EncodeWriteBatchCPooled(77, reqs, epoch)
		if err != nil {
			t.Fatalf("encode(epoch=%v): %v", epoch, err)
		}
		wantOp := OpWriteBatchC
		if epoch {
			wantOp |= EpochBit
		}
		if fr.Op != wantOp {
			t.Fatalf("op %v != %v", fr.Op, wantOp)
		}
		got, _, err := DecodeWriteBatchCInto(fr.Payload, nil, nil, epoch)
		if err != nil {
			t.Fatalf("decode(epoch=%v): %v", epoch, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("count %d != %d", len(got), len(reqs))
		}
		for i := range reqs {
			w, g := reqs[i], got[i]
			if g.DS != w.DS || g.Idx != w.Idx || g.Scheme != w.Scheme || g.RawLen != w.RawLen {
				t.Fatalf("tuple %d header mismatch: %+v != %+v", i, g, w)
			}
			if epoch && g.Epoch != w.Epoch {
				t.Fatalf("tuple %d epoch %d != %d", i, g.Epoch, w.Epoch)
			}
			if !epoch && g.Epoch != 0 {
				t.Fatalf("tuple %d spurious epoch %d", i, g.Epoch)
			}
			if len(g.Extents) != len(w.Extents) {
				t.Fatalf("tuple %d extents %d != %d", i, len(g.Extents), len(w.Extents))
			}
			for k := range w.Extents {
				if g.Extents[k] != w.Extents[k] {
					t.Fatalf("tuple %d extent %d: %+v != %+v", i, k, g.Extents[k], w.Extents[k])
				}
			}
			if !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("tuple %d data mismatch", i)
			}
		}
		PutBuf(fr.Payload)
	}
}

func TestWriteBatchCRejectsBogusRange(t *testing.T) {
	// offset+len > objSize must be rejected at decode time — the server
	// relies on this to never write outside an object.
	reqs := []WriteReqC{{
		DS: 1, Idx: 0, ObjSize: 64, Scheme: SchemeRaw, RawLen: 32,
		Extents: []Extent{{Off: 48, Len: 32}},
		Data:    make([]byte, 32),
	}}
	fr, err := EncodeWriteBatchCPooled(1, reqs, false)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	defer PutBuf(fr.Payload)
	if _, _, err := DecodeWriteBatchCInto(fr.Payload, nil, nil, false); err == nil {
		t.Fatalf("bogus range accepted")
	}
}

func TestWriteBatchCRejectsTruncatedBitstream(t *testing.T) {
	reqs := []WriteReqC{{DS: 3, Idx: 9, Scheme: SchemeRaw, RawLen: 64, Data: make([]byte, 64)}}
	fr, err := EncodeWriteBatchCPooled(1, reqs, false)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	defer PutBuf(fr.Payload)
	for cut := 0; cut < len(fr.Payload); cut++ {
		if _, _, err := DecodeWriteBatchCInto(fr.Payload[:cut], nil, nil, false); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestAckBatchCRoundTrip(t *testing.T) {
	fr := EncodeAckBatchC(4, 70, nil)
	count, _, any, err := DecodeAckBatchC(fr.Payload, nil)
	if err != nil || count != 70 || any {
		t.Fatalf("clean ack: count=%d any=%v err=%v", count, any, err)
	}
	PutBuf(fr.Payload)

	rej := make([]uint64, 2)
	rej[0] |= 1 << 3
	rej[1] |= 1 << (69 - 64)
	fr = EncodeAckBatchC(4, 70, rej)
	defer PutBuf(fr.Payload)
	count, got, any, err := DecodeAckBatchC(fr.Payload, nil)
	if err != nil || count != 70 || !any {
		t.Fatalf("rejected ack: count=%d any=%v err=%v", count, any, err)
	}
	for i := 0; i < 70; i++ {
		want := i == 3 || i == 69
		if got[i/64]>>(i%64)&1 == 1 != want {
			t.Fatalf("bit %d: want %v", i, want)
		}
	}
}

func TestCompactDecodersRejectForgedCounts(t *testing.T) {
	// A tiny payload claiming a huge tuple count must be rejected up
	// front, before any decode loop runs.
	w := NewBitWriter(make([]byte, 16))
	w.Uvarint(1 << 40)
	p, err := w.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if _, err := DecodeReadBatchCInto(p, nil); err == nil {
		t.Fatalf("READBATCH-C forged count accepted")
	}
	if _, err := DecodeDataBatchCInto(p, nil); err == nil {
		t.Fatalf("DATABATCH-C forged count accepted")
	}
	if _, _, err := DecodeWriteBatchCInto(p, nil, nil, false); err == nil {
		t.Fatalf("WRITEBATCH-C forged count accepted")
	}
	if _, _, _, err := DecodeAckBatchC(p, nil); err == nil {
		t.Fatalf("ACKBATCH-C forged count accepted")
	}
}

func TestReadBatchCProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		n := 1 + rng.Intn(64)
		reqs := make([]ReadReq, n)
		ds := uint32(rng.Intn(8))
		idx := uint32(rng.Intn(1 << 20))
		size := uint32(64 << rng.Intn(7))
		for i := range reqs {
			if rng.Intn(4) == 0 {
				ds = uint32(rng.Intn(8))
			}
			switch rng.Intn(3) {
			case 0:
				idx++
			case 1:
				idx = uint32(rng.Intn(1 << 20))
			}
			if rng.Intn(8) == 0 {
				size = uint32(rng.Intn(1 << 16))
			}
			reqs[i] = ReadReq{DS: ds, Idx: idx, Size: size}
		}
		fr := EncodeReadBatchCPooled(uint32(iter), reqs)
		got, err := DecodeReadBatchCInto(fr.Payload, nil)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		for i := range reqs {
			if got[i] != reqs[i] {
				t.Fatalf("iter %d tuple %d: %+v != %+v", iter, i, got[i], reqs[i])
			}
		}
		PutBuf(fr.Payload)
	}
}
