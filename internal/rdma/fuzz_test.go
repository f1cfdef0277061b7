package rdma

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"
)

// frameBytes serializes f in plain or checksummed framing for seeding.
func frameBytes(t *testing.F, f Frame, crc bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	var err error
	if crc {
		err = WriteFrameCRC(&buf, f)
	} else {
		err = WriteFrame(&buf, f)
	}
	if err != nil {
		t.Fatalf("seed encode: %v", err)
	}
	return buf.Bytes()
}

// FuzzFrameDecode feeds arbitrary byte streams to both frame decoders
// (plain and CRC-trailer framing) and checks the invariants every
// successfully decoded frame must satisfy:
//
//   - neither decoder panics, whatever the input;
//   - a decoded frame re-encodes and decodes back identically (both
//     framings) — the codec is a bijection on its valid range;
//   - a corrupted CRC trailer is always detected (ErrCRC);
//   - the per-opcode payload decoders never panic, and on success
//     re-encode byte-identically.
func FuzzFrameDecode(f *testing.F) {
	// Valid frames across the opcode space: untagged, tagged, empty and
	// non-empty payloads, batch encodings. The order is load-bearing:
	// seed#N names are positions in it, so retired verbs keep their slot
	// as raw frames on their reserved opcodes — streams an old peer could
	// send, which must frame-decode and re-encode like any other and have
	// no payload decoder left to reach.
	retired := func(op Op, tag uint32, payloadHex string) Frame {
		p, err := hex.DecodeString(payloadHex)
		if err != nil {
			f.Fatal(err)
		}
		return Frame{Op: TagBit | op, Tag: tag, Payload: p}
	}
	reads := []ReadReq{{DS: 2, Idx: 7, Size: 16}, {DS: 2, Idx: 8, Size: 0}}
	readEpoch := EncodeReadBatchPooled(13, reads) // READEPOCHBATCH had READBATCH's payload
	readEpoch.Op = TagBit | 0x09
	seeds := []Frame{
		HelloFrame(OpHello, Hello{Version: ProtoVersion, Opts: OptCompress}),
		HelloFrame(OpOK, Hello{Version: ProtoVersion, Opts: OptTrace}),
		HelloErrFrame("server speaks protocol version 3: client speaks version 2"),
		{Op: OpHello},
		{Op: OpHello, Payload: []byte{0xFF, 0, 0, 0}}, // version 1's feature PING
		HelloFrame(OpHello, Hello{Version: ProtoVersion + 1, Opts: 1 << 9}),
		{Op: OpOK},
		{Op: OpErr, Payload: []byte("short")}, // an ERR too short to lead with a record
		{Op: OpOK, Payload: bytes.Repeat([]byte{0xAB}, 100)},
		EncodeReadBatchPooled(7, []ReadReq{{DS: 1, Idx: 2, Size: 32}, {DS: 1, Idx: 3, Size: 32}}), // READBATCH
		ErrTagFrame(11, "boom"),
		retired(0x07, 9, "02000000"), // ACKBATCH
		// WRITEBATCH: three tuples, one empty.
		retired(0x06, 8, "0300000001000000020000000c0000006669727374206f626a656374010000000300000000000000"+
			"0200000000000000400000005a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"+
			"5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a"),
	}
	if db, err := EncodeDataBatch(7, [][]byte{[]byte("aaaa"), []byte("bb"), nil}); err == nil {
		seeds = append(seeds, db) // DATABATCH
	}
	seeds = append(seeds,
		readEpoch,
		// WRITEEPOCHBATCH: u64 stamps spliced into fixed-width tuples.
		retired(0x08, 14, "03000000010000000200000001000000000000000900000065706f6368206f6e6501000000030000002a"+
			"00000000000080000000000300000000000000070000000000000030000000c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3"+
			"c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3c3"),
		// DATAEPOCHBATCH: a stamped segment and a zero-epoch (absent) one.
		retired(0x0A, 15, "020000000900000000000000070000007374616d706564000000000000000000000000"),
	)
	// Traversal-offload verbs: a program batch whose second tuple sets
	// the reserved word (the retired field mask, which an old peer could
	// still send and the decoder refuses), and replies across the status
	// space — multi-hop done, budget-exhausted, and an empty path.
	masked := EncodeChaseBatchPooled(16, []ChaseReq{
		{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 16},
		{DS: 2, Start: 7, ObjSize: 32, NextOff: 24, Hops: 1},
	})
	binary.LittleEndian.PutUint64(masked.Payload[4+chaseReqSize+20:], 0x9)
	seeds = append(seeds, masked)
	if cd, err := EncodeChaseData(17, []ChaseResult{
		{Status: ChaseDone, Final: 0xFEED, Hops: []ChaseHop{
			{Idx: 0, Data: bytes.Repeat([]byte{0x6C}, 64)},
			{Idx: 3, Data: bytes.Repeat([]byte{0x6D}, 64)},
		}},
		{Status: ChaseHops, Final: chaseAddrTagBit | 2<<chaseAddrDSShift | 96,
			Hops: []ChaseHop{{Idx: 9, Data: bytes.Repeat([]byte{0x6E}, 32)}}},
		{Status: ChaseDone, Final: 0, Hops: nil},
	}); err == nil {
		seeds = append(seeds, cd)
	}
	// The data verbs: delta-encoded read batches, mixed-scheme data
	// batches, write batches with full, zero, compressed and range
	// tuples, and the rejected-bitmap ack.
	seeds = append(seeds, EncodeReadBatchCPooled(18, []ReadReq{
		{DS: 2, Idx: 100, Size: 4096}, {DS: 2, Idx: 101, Size: 4096},
		{DS: 5, Idx: 3, Size: 64}, {DS: 5, Idx: 1, Size: 0},
	}))
	{
		var b DataBatchCBuilder
		b.Add(make([]byte, 256), true)                              // zero
		b.Add(bytes.Repeat([]byte("compressible seed "), 32), true) // lz
		b.Add([]byte{9, 1, 1, 2, 3, 5, 8, 13}, true)                // raw
		if db, err := b.Frame(19); err == nil {
			seeds = append(seeds, db)
		}
		b.Release()
	}
	{
		body := bytes.Repeat([]byte("write seed body "), 24)
		comp := make([]byte, CompressBound(len(body)))
		n, _ := LZCompress(comp, body)
		reqs := []WriteReqC{
			{DS: 1, Idx: 40, Epoch: 6, Scheme: SchemeRaw, RawLen: 8, Data: []byte("8 bytes!")},
			{DS: 1, Idx: 41, Epoch: 7, Scheme: SchemeZero, RawLen: 1024},
			{DS: 3, Idx: 0, Epoch: 1, Scheme: SchemeLZ, RawLen: uint32(len(body)), Data: comp[:n]},
			{DS: 3, Idx: 2, Epoch: 8, ObjSize: 4096, Scheme: SchemeRaw, RawLen: 20,
				Extents: []Extent{{Off: 0, Len: 16}, {Off: 128, Len: 4}},
				Data:    make([]byte, 20)},
		}
		for _, epoch := range []bool{false, true} {
			if wb, err := EncodeWriteBatchCPooled(20, reqs, epoch); err == nil {
				if epoch {
					wb.Op = TagBit | 0x10 // WRITEEPOCHBATCH-C; the live form is appended below
				}
				seeds = append(seeds, wb)
			}
		}
		// A bogus range (offset+len > objSize): the encoder trusts its
		// caller, so this seeds the decoder's rejection path.
		if wb, err := EncodeWriteBatchCPooled(21, []WriteReqC{{
			DS: 1, Idx: 0, ObjSize: 32, Scheme: SchemeRaw, RawLen: 16,
			Extents: []Extent{{Off: 24, Len: 16}}, Data: make([]byte, 16),
		}}, false); err == nil {
			seeds = append(seeds, wb)
		}
	}
	seeds = append(seeds, EncodeAckBatchC(22, 70, []uint64{1 << 3, 1 << 5}))
	// Truncated compact bit streams: a write batch cut mid-header and a
	// read batch cut mid-varint.
	if wb, err := EncodeWriteBatchCPooled(23, []WriteReqC{
		{DS: 9, Idx: 9, Scheme: SchemeRaw, RawLen: 64, Data: make([]byte, 64)},
	}, true); err == nil {
		seeds = append(seeds, Frame{Op: TagBit | 0x10, Tag: wb.Tag, Payload: wb.Payload[:3]})
	}
	{
		rb := EncodeReadBatchCPooled(24, []ReadReq{{DS: 1, Idx: 2, Size: 3}, {DS: 1, Idx: 9, Size: 3}})
		seeds = append(seeds, Frame{Op: rb.Op, Tag: rb.Tag, Payload: rb.Payload[:len(rb.Payload)-1]})
	}
	for _, fr := range seeds {
		f.Add(frameBytes(f, fr, false))
		f.Add(frameBytes(f, fr, true))
	}
	// Adversarial shapes: truncated header, truncated payload, oversized
	// length prefix, tagged opcode with missing tag, trailing garbage.
	f.Add([]byte{})
	f.Add([]byte{0x0C, 0x00, 0x00})                                  // torn header
	f.Add([]byte{0x0C, 0x00, 0x00, 0x00, byte(OpHello), 1, 2, 3})    // torn payload
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, byte(OpErr)})               // oversized length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, byte(OpReadBatch)})         // tagged, no tag bytes
	f.Add(append(frameBytes(f, Frame{Op: OpOK}, false), 0xDE, 0xAD)) // trailing garbage

	// The epoch modifier (seeds past #59, so the numbering above stands):
	// a stamped read, a stamped DATA reply whose first segment is a
	// zero-length epoch probe, a stamped write batch, one cut mid-header,
	// and a stamped range write whose extent lies outside its object.
	stamped := []Frame{EncodeReadBatchCPooled(25, reads)}
	stamped[0].Op |= EpochBit
	{
		var b DataBatchCBuilder
		b.BeginEpoch()
		b.Add(nil, true)
		b.Stamp(1<<63 + 9)
		b.Add(bytes.Repeat([]byte("compressible seed "), 32), true)
		b.Stamp(3)
		b.Add(make([]byte, 64), true) // absent object: zero bytes, epoch 0
		if db, err := b.Frame(26); err == nil {
			stamped = append(stamped, db)
		}
		b.Release()
	}
	if wb, err := EncodeWriteBatchCPooled(27, []WriteReqC{
		{DS: 1, Idx: 40, Epoch: 6, Scheme: SchemeRaw, RawLen: 8, Data: []byte("8 bytes!")},
		{DS: 3, Idx: 2, Epoch: 8, ObjSize: 4096, Scheme: SchemeRaw, RawLen: 20,
			Extents: []Extent{{Off: 0, Len: 16}, {Off: 128, Len: 4}}, Data: make([]byte, 20)},
	}, true); err == nil {
		stamped = append(stamped, wb, Frame{Op: wb.Op, Tag: wb.Tag, Payload: wb.Payload[:3]})
	}
	if wb, err := EncodeWriteBatchCPooled(28, []WriteReqC{{
		DS: 1, Idx: 0, Epoch: 2, ObjSize: 32, Scheme: SchemeRaw, RawLen: 16,
		Extents: []Extent{{Off: 24, Len: 16}}, Data: make([]byte, 16),
	}}, true); err == nil {
		stamped = append(stamped, wb)
	}
	for _, fr := range stamped {
		f.Add(frameBytes(f, fr, false))
		f.Add(frameBytes(f, fr, true))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// The CRC decoder must tolerate the same arbitrary inputs; its
		// result is checked only through the round-trip below.
		newSessionReaders(t, data, false).next()
		newSessionReaders(t, data, true).next()

		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(fr.Payload) > MaxFrame {
			t.Fatalf("decoded frame exceeds MaxFrame: %d bytes", len(fr.Payload))
		}
		if !fr.Op.Tagged() && fr.Tag != 0 {
			t.Fatalf("untagged frame %s decoded with tag %d", fr.Op, fr.Tag)
		}

		// Plain-framing round trip.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if got.Op != fr.Op || got.Tag != fr.Tag || !bytes.Equal(got.Payload, fr.Payload) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, fr)
		}

		// CRC-framing round trip, and trailer corruption detection.
		enc := sessionBytes(t, fr)
		got, err = newSessionReaders(t, enc, false).next()
		if err != nil {
			t.Fatalf("crc re-decode: %v", err)
		}
		if got.Op != fr.Op || got.Tag != fr.Tag || !bytes.Equal(got.Payload, fr.Payload) {
			t.Fatalf("crc round trip mismatch: %+v != %+v", got, fr)
		}
		enc[len(enc)-1] ^= 0xFF // any trailer bit flip must be caught
		if _, err := newSessionReaders(t, enc, false).next(); !errors.Is(err, ErrCRC) {
			t.Fatalf("corrupted trailer not detected: err=%v", err)
		}

		// Payload decoders: no panics, and success implies an identical
		// re-encoding.
		switch fr.Op {
		case OpHello, OpOK, OpErr:
			if h, err := DecodeHello(fr.Payload); err == nil {
				if re := h.Append(nil); !bytes.Equal(re, fr.Payload[:HelloSize]) {
					t.Fatalf("hello record re-encode mismatch")
				}
			}
		case OpDataBatch:
			// The reference codec (refcodec.go) is canonical.
			if segs, err := DecodeDataBatchInto(fr.Payload, nil); err == nil {
				re, err := EncodeDataBatch(fr.Tag, segs)
				if err != nil {
					t.Fatalf("DATABATCH re-encode: %v", err)
				}
				if !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("DATABATCH re-encode mismatch")
				}
			}
		case OpChaseBatch:
			if reqs, err := DecodeChaseBatchInto(fr.Payload, nil); err == nil {
				if re := EncodeChaseBatchPooled(fr.Tag, reqs); !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("CHASEBATCH re-encode mismatch")
				}
				// Programs a server would run must survive Validate without
				// panicking; accepted ones must carry a bounded walk.
				for _, r := range reqs {
					if r.Validate() == nil && r.Hops == 0 {
						t.Fatalf("validated program with zero hop budget: %+v", r)
					}
				}
			}
		case OpChaseData:
			if res, err := DecodeChaseDataInto(fr.Payload, nil); err == nil {
				re, err := EncodeChaseData(fr.Tag, res)
				if err != nil {
					t.Fatalf("CHASEDATA re-encode: %v", err)
				}
				if !bytes.Equal(re.Payload, fr.Payload) {
					t.Fatalf("CHASEDATA re-encode mismatch")
				}
			}
		case OpReadBatchC, OpReadBatchC | EpochBit:
			// The bit-packed encodings are non-canonical (a repeated DS may
			// arrive as either the same-DS bit or an explicit varint), so
			// the invariant is semantic: decode → encode → decode is an
			// identity on the decoded form.
			if reqs, err := DecodeReadBatchCInto(fr.Payload, nil); err == nil {
				re := EncodeReadBatchCPooled(fr.Tag, reqs)
				got, err := DecodeReadBatchCInto(re.Payload, nil)
				if err != nil {
					t.Fatalf("READBATCH-C re-decode: %v", err)
				}
				if len(got) != len(reqs) {
					t.Fatalf("READBATCH-C count changed: %d != %d", len(got), len(reqs))
				}
				for i := range reqs {
					if got[i] != reqs[i] {
						t.Fatalf("READBATCH-C tuple %d changed: %+v != %+v", i, got[i], reqs[i])
					}
				}
				PutBuf(re.Payload)
			}
		case OpDataBatchC, OpDataBatchC | EpochBit:
			if segs, err := DecodeDataSegsInto(fr.Payload, nil, fr.Op&EpochBit != 0); err == nil {
				for _, s := range segs {
					// Accepted compressed segments must expand to exactly
					// RawLen bytes or fail cleanly — no panic, no
					// out-of-bounds write.
					switch out := make([]byte, s.RawLen); s.Scheme {
					case SchemeLZ:
						_ = LZDecompress(out, s.Data)
					case SchemeWords:
						_ = UnpackWords(out, s.Data)
					}
				}
			}
		case OpWriteBatchC, OpWriteBatchC | EpochBit:
			epoch := fr.Op&EpochBit != 0
			if reqs, _, err := DecodeWriteBatchCInto(fr.Payload, nil, nil, epoch); err == nil {
				for i := range reqs {
					r := &reqs[i]
					// Decode-accepted extents must stay inside the object.
					for _, e := range r.Extents {
						if uint64(e.Off)+uint64(e.Len) > uint64(r.ObjSize) {
							t.Fatalf("WRITEBATCH-C accepted extent outside object: %+v objSize=%d", e, r.ObjSize)
						}
					}
					switch out := make([]byte, r.RawLen); r.Scheme {
					case SchemeLZ:
						_ = LZDecompress(out, r.Data)
					case SchemeWords:
						_ = UnpackWords(out, r.Data)
					}
				}
				re, err := EncodeWriteBatchCPooled(fr.Tag, reqs, epoch)
				if err != nil {
					t.Fatalf("WRITEBATCH-C re-encode: %v", err)
				}
				got, _, err := DecodeWriteBatchCInto(re.Payload, nil, nil, epoch)
				if err != nil {
					t.Fatalf("WRITEBATCH-C re-decode: %v", err)
				}
				if len(got) != len(reqs) {
					t.Fatalf("WRITEBATCH-C count changed: %d != %d", len(got), len(reqs))
				}
				for i := range reqs {
					w, g := &reqs[i], &got[i]
					if g.DS != w.DS || g.Idx != w.Idx || g.Epoch != w.Epoch ||
						g.Scheme != w.Scheme || g.RawLen != w.RawLen ||
						g.ObjSize != w.ObjSize || len(g.Extents) != len(w.Extents) ||
						!bytes.Equal(g.Data, w.Data) {
						t.Fatalf("WRITEBATCH-C tuple %d changed", i)
					}
					for k := range w.Extents {
						if g.Extents[k] != w.Extents[k] {
							t.Fatalf("WRITEBATCH-C tuple %d extent %d changed", i, k)
						}
					}
				}
				PutBuf(re.Payload)
			}
		case OpAckBatchC:
			if count, rej, any, err := DecodeAckBatchC(fr.Payload, nil); err == nil {
				var bm []uint64
				if any {
					bm = append([]uint64(nil), rej...)
				}
				re := EncodeAckBatchC(fr.Tag, count, bm)
				count2, rej2, any2, err := DecodeAckBatchC(re.Payload, nil)
				if err != nil || count2 != count || any2 != any {
					t.Fatalf("ACKBATCH-C changed: count %d->%d any %v->%v err=%v",
						count, count2, any, any2, err)
				}
				if any {
					for i := range bm {
						if rej2[i] != bm[i] {
							t.Fatalf("ACKBATCH-C bitmap word %d changed", i)
						}
					}
				}
				PutBuf(re.Payload)
			}
		}
	})
}
