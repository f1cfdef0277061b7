package rdma

import "fmt"

// The batch encoding: bit-packed batch headers, delta-encoded tuples,
// per-segment compression schemes, and the range sub-encoding for
// dirty-range write-back.
//
// Batch payloads ride the outer framing unchanged (u32 len | u8 op |
// u32 tag, CRC trailer, trace extension). Tuple headers are a bit
// stream (see bitio.go): repeated DS ids collapse to one bit, object
// indices are zigzag deltas off the previous tuple (a sequential scan
// costs 5 bits per index), and sizes repeat as one bit when unchanged.
// Object payloads follow the headers byte-aligned, each tagged with a
// two-bit scheme:
//
//	SchemeRaw   — verbatim bytes
//	SchemeLZ    — an LZ block (lz.go); decompressed length from the header
//	SchemeZero  — all-zero object, no bytes at all
//	SchemeWords — a bit-packed word block (words.go); likewise
//
// Payloads (after the bit-stream header, A = byte alignment; [epoch] is
// a u64 varint present iff the opcode carries EpochBit):
//
//	READBATCH-C:  count | tuples(ds?,Δidx,size?)                    | A
//	DATABATCH-C:  count | segs(scheme,rawLen[,compLen][,epoch])     | A | blobs
//	WRITEBATCH-C: count | tuples(ds?,Δidx[,epoch],kind,
//	              [objSize,extents],scheme[,lens])                  | A | blobs
//	ACKBATCH-C:   count | count rejected bits                       | A
//
// A WRITEBATCH-C tuple is either a full object (kind 0) or a range
// write (kind 1): the object's size, then 1..MaxExtents sorted
// non-overlapping (offset,len) extents — offset delta-encoded from the
// previous extent's end, so adjacent dirty fields cost ~10 bits — whose
// concatenated bytes form the tuple's blob. The server applies ranges
// read-modify-write; every extent is validated against objSize at
// decode time, so a forged offset can never write outside the object.
//
// The epoch modifier is how the replication layer versions objects: a
// stamped READBATCH-C has the plain payload and is answered by a
// stamped DATABATCH-C whose segments report each object's stored epoch
// (0 when absent; a zero-length read is a pure epoch probe); a stamped
// WRITEBATCH-C applies each tuple only if its epoch is not older than
// the stored one, and its ACKBATCH-C bitmap marks range tuples the
// server rejected because their base image was stale (see
// internal/remote: the client treats a set bit as a failed write and
// lets the replica layer mark the member divergent). ACKBATCH-C itself
// is never stamped.

// Segment compression schemes (2 bits on the wire).
const (
	SchemeRaw   uint8 = 0
	SchemeLZ    uint8 = 1
	SchemeZero  uint8 = 2
	SchemeWords uint8 = 3
)

// SchemePacked reports whether a scheme's bytes are a compressed block,
// whose length the header carries beside the raw one.
func SchemePacked(scheme uint8) bool { return scheme == SchemeLZ || scheme == SchemeWords }

// UnpackBlock lays a segment of the given scheme into dst, the object's
// raw length: a block expands, raw bytes copy, a zero segment clears.
func UnpackBlock(scheme uint8, dst, block []byte) error {
	switch scheme {
	case SchemeWords:
		return UnpackWords(dst, block)
	case SchemeLZ:
		return LZDecompress(dst, block)
	case SchemeZero:
		clear(dst)
	default:
		copy(dst, block)
	}
	return nil
}

// Block names what a read left in wire form at the front of its buffer:
// Scheme and Len bytes of segment. The zero Block is the raw object.
type Block struct {
	Scheme uint8
	Len    int
}

// Extent is one modified byte range of an object, used by range-write
// tuples. Extents in a tuple are sorted by Off and non-overlapping.
type Extent struct {
	Off, Len uint32
}

// MaxExtents bounds the extents of one range tuple; dirtier objects
// fall back to full-object writes before hitting it.
const MaxExtents = 512

// compactCountOK rejects forged tuple counts before decoding: every
// tuple costs at least one bit, so a count beyond 8x the
// payload length cannot be satisfied.
func compactCountOK(count uint64, p []byte) bool {
	return count <= uint64(len(p))*8
}

// BatchCount returns the tuple count a READBATCH-C or WRITEBATCH-C
// payload opens with, without decoding the tuples: enough for a server to
// tell a fault-sized batch from a window-sized one. ok is false for a
// payload too short to hold it.
func BatchCount(p []byte) (count uint64, ok bool) {
	r := NewBitReader(p)
	count = r.Uvarint()
	return count, r.Err() == nil
}

// BatchHdrBound is the worst case of a batch payload's tuple-count
// varint, byte-aligned: the fixed part of every batch bound below, and of
// the client's per-frame budget.
const BatchHdrBound = 6

// --- READBATCH-C ---

// readBatchCBound is the worst-case payload size for n read tuples
// (count varint + full-width ds/idx/size varints per tuple).
func readBatchCBound(n int) int { return BatchHdrBound + 16*n }

// EncodeReadBatchCPooled builds a READBATCH-C frame with a pooled
// payload; the caller should PutBuf it after the frame is written. An
// epoch read is the same frame with EpochBit set on its Op.
func EncodeReadBatchCPooled(tag uint32, reqs []ReadReq) Frame {
	w := NewBitWriter(GetBuf(readBatchCBound(len(reqs))))
	w.Uvarint(uint64(len(reqs)))
	var prev ReadReq
	for i, r := range reqs {
		if i == 0 {
			w.Uvarint(uint64(r.DS))
			w.Uvarint(uint64(r.Idx))
			w.Uvarint(uint64(r.Size))
		} else {
			if r.DS == prev.DS {
				w.WriteBit(true)
			} else {
				w.WriteBit(false)
				w.Uvarint(uint64(r.DS))
			}
			w.Svarint(int64(r.Idx) - int64(prev.Idx) - 1)
			if r.Size == prev.Size {
				w.WriteBit(true)
			} else {
				w.WriteBit(false)
				w.Uvarint(uint64(r.Size))
			}
		}
		prev = r
	}
	p, err := w.Finish()
	if err != nil {
		// The bound above covers every encodable tuple; reaching this
		// means a caller bug, not bad input.
		panic(err)
	}
	return Frame{Op: OpReadBatchC, Tag: tag, Payload: p}
}

// DecodeReadBatchCInto parses a READBATCH-C payload, appending
// into a caller-owned slice.
func DecodeReadBatchCInto(p []byte, reqs []ReadReq) ([]ReadReq, error) {
	r := NewBitReader(p)
	count := r.Uvarint()
	if !compactCountOK(count, p) {
		return nil, fmt.Errorf("rdma: READBATCH-C count %d exceeds payload", count)
	}
	reqs = reqs[:0]
	var prev ReadReq
	for i := uint64(0); i < count; i++ {
		var req ReadReq
		if i == 0 {
			req.DS = uint32(r.Uvarint())
			req.Idx = uint32(r.Uvarint())
			req.Size = uint32(r.Uvarint())
		} else {
			if r.ReadBit() {
				req.DS = prev.DS
			} else {
				req.DS = uint32(r.Uvarint())
			}
			idx := int64(prev.Idx) + 1 + r.Svarint()
			if idx < 0 || idx > 1<<32-1 {
				return nil, fmt.Errorf("rdma: READBATCH-C index delta out of range at tuple %d", i)
			}
			req.Idx = uint32(idx)
			if r.ReadBit() {
				req.Size = prev.Size
			} else {
				req.Size = uint32(r.Uvarint())
			}
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("rdma: truncated READBATCH-C at tuple %d", i)
		}
		if req.Size > MaxFrame {
			return nil, fmt.Errorf("rdma: READBATCH-C size %d exceeds MaxFrame", req.Size)
		}
		reqs = append(reqs, req)
		prev = req
	}
	r.Align()
	if !r.Done() {
		return nil, fmt.Errorf("rdma: READBATCH-C trailing garbage")
	}
	return reqs, nil
}

// --- DATABATCH-C ---

// DataSegC is one decoded segment of a DATABATCH-C: the scheme, the
// decompressed length, the wire bytes (a subslice of the payload; empty
// for SchemeZero) and, on a stamped reply, the object's stored epoch.
type DataSegC struct {
	Scheme uint8
	RawLen uint32
	Epoch  uint64
	Data   []byte
}

// DecodeDataBatchCInto parses an un-stamped DATABATCH-C payload,
// appending into a caller-owned slice (Data fields remain subslices of
// p).
func DecodeDataBatchCInto(p []byte, segs []DataSegC) ([]DataSegC, error) {
	return DecodeDataSegsInto(p, segs, false)
}

// DecodeDataSegsInto is DecodeDataBatchCInto for either form of the
// reply: epoch says whether the frame carried EpochBit.
func DecodeDataSegsInto(p []byte, segs []DataSegC, epoch bool) ([]DataSegC, error) {
	r := NewBitReader(p)
	count := r.Uvarint()
	if !compactCountOK(count, p) {
		return nil, fmt.Errorf("rdma: DATABATCH-C count %d exceeds payload", count)
	}
	segs = segs[:0]
	for i := uint64(0); i < count; i++ {
		var s DataSegC
		s.Scheme = uint8(r.ReadBits(2))
		raw := r.Uvarint()
		if raw > MaxFrame {
			return nil, fmt.Errorf("rdma: DATABATCH-C segment %d rawLen %d exceeds MaxFrame", i, raw)
		}
		s.RawLen = uint32(raw)
		if SchemePacked(s.Scheme) {
			comp := r.Uvarint()
			if comp == 0 || comp >= raw || comp > uint64(len(p)) {
				return nil, fmt.Errorf("rdma: DATABATCH-C segment %d bad compressed length %d/%d", i, comp, raw)
			}
			// Stash the wire length until the blob pass below.
			s.Data = p[:comp:comp]
		}
		if epoch {
			s.Epoch = r.Uvarint()
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("rdma: truncated DATABATCH-C at segment %d", i)
		}
		segs = append(segs, s)
	}
	r.Align()
	for i := range segs {
		n := len(segs[i].Data) // a packed block's stashed length; else 0
		if segs[i].Scheme == SchemeRaw {
			n = int(segs[i].RawLen)
		}
		segs[i].Data = r.Bytes(n)
		if r.Err() != nil {
			return nil, fmt.Errorf("rdma: truncated DATABATCH-C blob %d", i)
		}
	}
	if !r.Done() {
		return nil, fmt.Errorf("rdma: DATABATCH-C trailing garbage")
	}
	return segs, nil
}

// DataSegBound is the worst-case DATABATCH-C contribution of the segment
// answering one size-byte read (stamped when epoch is set): its header
// fields at full varint width — scheme, rawLen, a packed block's length,
// the epoch — plus the raw bytes, which compression only shrinks. A reply
// stays within BatchHdrBound plus the sum over its segments.
func DataSegBound(size int, epoch bool) int {
	n := 13 + size
	if epoch {
		n += 10
	}
	return n
}

// dataSegMeta records one staged segment inside DataBatchCBuilder.
type dataSegMeta struct {
	scheme  uint8
	rawLen  uint32
	wireLen uint32
	epoch   uint64
}

// DataBatchCBuilder assembles a DATABATCH-C reply. The server
// stages each object read into Stage — a slot carved in place out of
// the blob region — classifies it with Add (one scan, optional
// compression), and emits the frame once per batch: Frame writes the
// header and copies the blobs after it into one pooled payload, whatever
// the segments' schemes. Raw staged objects commit with no copy; only
// compressed ones bounce through scratch. All internal buffers are
// pooled and reused across batches, so a per-connection builder is
// allocation-free in steady state.
//
// A batch answering a stamped read starts with BeginEpoch and follows
// every Add with Stamp.
type DataBatchCBuilder struct {
	metas   []dataSegMeta
	data    []byte // accumulated wire blobs
	dlen    int
	epoch   bool   // stamped reply: segment headers carry epochs
	scratch []byte // encoder bounce buffer for staged-in-place segments
}

// Reset drops the previous batch's segments (buffers are retained).
func (b *DataBatchCBuilder) Reset() {
	b.metas = b.metas[:0]
	b.dlen = 0
	b.epoch = false
}

// BeginEpoch makes the batch a stamped reply: Frame emits
// DATABATCH-C|EpochBit and every segment header carries the epoch its
// Stamp call gave (0 without one).
func (b *DataBatchCBuilder) BeginEpoch() { b.epoch = true }

// Stamp records the stored epoch of the segment most recently added.
func (b *DataBatchCBuilder) Stamp(epoch uint64) { b.metas[len(b.metas)-1].epoch = epoch }

// Release returns the builder's internal buffers to the frame pool.
func (b *DataBatchCBuilder) Release() {
	PutBuf(b.data)
	PutBuf(b.scratch)
	*b = DataBatchCBuilder{}
}

// Stage returns an n-byte staging slot for the next object's raw bytes.
// The slot is valid until the next Stage call. It is carved directly
// out of the blob region at the write position, so Add's raw path (the
// common case on an incompressible or compression-off session) commits
// the bytes in place with no copy.
func (b *DataBatchCBuilder) Stage(n int) []byte {
	b.ensureData(n)
	return b.data[b.dlen : b.dlen+n]
}

// stagedInPlace reports whether src is the slot the last Stage call
// returned, i.e. its bytes already sit in the blob region at dlen.
func (b *DataBatchCBuilder) stagedInPlace(src []byte) bool {
	return len(src) > 0 && b.dlen+len(src) <= len(b.data) && &src[0] == &b.data[b.dlen]
}

// ensureData grows the blob region to fit n more bytes. The region is
// always kept at its full capacity so Add can slice ahead of dlen.
func (b *DataBatchCBuilder) ensureData(n int) {
	if b.dlen+n <= len(b.data) {
		return
	}
	nb := GetBuf(max(2*cap(b.data), b.dlen+n))
	nb = nb[:cap(nb)]
	copy(nb, b.data[:b.dlen])
	PutBuf(b.data)
	b.data = nb
}

// Add appends one segment holding src's bytes, choosing the cheapest
// scheme: all-zero objects ship no bytes, and when tryCompress is set an
// object of small words is bit-packed and any other gets an LZ pass,
// which keeps the compressed form only if it is strictly smaller. It
// returns the chosen scheme and the segment's wire length (the
// compressibility signal the adaptive policy feeds on).
func (b *DataBatchCBuilder) Add(src []byte, tryCompress bool) (scheme uint8, wireLen int) {
	staged := b.stagedInPlace(src)
	s, w := ScanWords(src) // the one pass that classifies src: zero, small words, or neither
	if w == 0 {
		// dlen does not advance: a staged slot is simply abandoned.
		b.metas = append(b.metas, dataSegMeta{scheme: SchemeZero, rawLen: uint32(len(src))})
		return SchemeZero, 0
	}
	if tryCompress {
		// Neither encoder may overlap its input, and a staged src occupies
		// the blob region at dlen: its block goes to scratch and only the
		// (smaller) result is copied back. CompressBound covers WordsBound
		// (TestCompressBoundCoversWordsBound).
		bound := CompressBound(len(src))
		var out []byte
		if staged {
			if cap(b.scratch) < bound {
				PutBuf(b.scratch)
				b.scratch = GetBuf(bound)
			}
			out = b.scratch[:bound]
		} else {
			b.ensureData(bound)
			out = b.data[b.dlen : b.dlen+bound]
		}
		n := 0
		if w > 0 {
			scheme, n = SchemeWords, PackWords(out, src, s, w)
		} else if m, ok := LZCompress(out, src); ok && m < len(src) {
			scheme, n = SchemeLZ, m
		}
		if n > 0 {
			if staged {
				copy(b.data[b.dlen:], out[:n])
			}
			b.metas = append(b.metas, dataSegMeta{scheme: scheme, rawLen: uint32(len(src)), wireLen: uint32(n)})
			b.dlen += n
			return scheme, n
		}
	}
	if !staged {
		b.ensureData(len(src))
		copy(b.data[b.dlen:], src)
	}
	b.dlen += len(src)
	b.metas = append(b.metas, dataSegMeta{scheme: SchemeRaw, rawLen: uint32(len(src)), wireLen: uint32(len(src))})
	return SchemeRaw, len(src)
}

// AddWire appends one segment that is already in wire form: the LZ or
// bit-packed block of a rawLen-byte object, or — SchemeZero, wire empty
// — an all-zero one. The bytes are trusted (the server validated the
// block when it was written) and not looked at; a block sitting in the
// last Stage slot is committed in place.
func (b *DataBatchCBuilder) AddWire(scheme uint8, rawLen int, wire []byte) {
	if !b.stagedInPlace(wire) {
		b.ensureData(len(wire))
		copy(b.data[b.dlen:], wire)
	}
	b.dlen += len(wire)
	b.metas = append(b.metas, dataSegMeta{scheme: scheme, rawLen: uint32(rawLen), wireLen: uint32(len(wire))})
}

// Last returns the wire bytes of the last segment added, until the next.
func (b *DataBatchCBuilder) Last() []byte {
	return b.data[b.dlen-int(b.metas[len(b.metas)-1].wireLen) : b.dlen]
}

// Frame assembles the DATABATCH-C reply with a pooled payload;
// the caller should PutBuf the payload after writing the frame.
func (b *DataBatchCBuilder) Frame(tag uint32) (Frame, error) {
	hdrBound := BatchHdrBound + len(b.metas)*DataSegBound(0, b.epoch)
	op := OpDataBatchC
	if b.epoch {
		op |= EpochBit
	}
	if hdrBound+b.dlen > MaxFrame {
		return Frame{}, fmt.Errorf("rdma: DATABATCH-C too large (%d bytes)", hdrBound+b.dlen)
	}
	w := NewBitWriter(GetBuf(hdrBound + b.dlen))
	w.Uvarint(uint64(len(b.metas)))
	for _, m := range b.metas {
		w.WriteBits(uint64(m.scheme), 2)
		w.Uvarint(uint64(m.rawLen))
		if SchemePacked(m.scheme) {
			w.Uvarint(uint64(m.wireLen))
		}
		if b.epoch {
			w.Uvarint(m.epoch)
		}
	}
	w.Align()
	copy(w.Bytes(b.dlen), b.data[:b.dlen])
	p, err := w.Finish()
	if err != nil {
		return Frame{}, err
	}
	return Frame{Op: op, Tag: tag, Payload: p}, nil
}

// --- WRITEBATCH-C ---

// WriteReqC is one tuple of a write batch. A nil Extents means
// a full-object write of RawLen bytes; otherwise the tuple is a range
// write over an ObjSize-byte object and Data carries the extents'
// bytes concatenated. Data always holds the wire form (compressed when
// Scheme is SchemeLZ or SchemeWords, absent when SchemeZero); RawLen is
// the decompressed length.
type WriteReqC struct {
	DS, Idx uint32
	Epoch   uint64 // stamped batches only
	ObjSize uint32 // range tuples only
	Extents []Extent
	Scheme  uint8
	RawLen  uint32
	Data    []byte

	nExt int // decode scratch: extent count before the arena fixup
}

// WriteReqCBound is the worst-case payload contribution of one tuple
// with dataLen wire bytes and nExt extents — what the flusher sums
// against MaxFrame before closing a batch. Compression only shrinks
// dataLen, so bounding with the raw length is safe.
func WriteReqCBound(dataLen, nExt int, epoch bool) int {
	n := 22 + dataLen // ds + idx + kind/scheme bits + lengths
	if epoch {
		n += 10
	}
	if nExt > 0 {
		n += 12 + 10*nExt
	}
	return n
}

// WriteBatchCSize bounds the payload for reqs (see WriteReqCBound).
func WriteBatchCSize(reqs []WriteReqC, epoch bool) int {
	n := BatchHdrBound
	for i := range reqs {
		n += WriteReqCBound(len(reqs[i].Data), len(reqs[i].Extents), epoch)
	}
	return n
}

// EncodeWriteBatchCPooled builds a WRITEBATCH-C frame (with epoch set,
// the stamped form: EpochBit on the Op, an epoch per tuple) with a
// pooled payload.
func EncodeWriteBatchCPooled(tag uint32, reqs []WriteReqC, epoch bool) (Frame, error) {
	bound := WriteBatchCSize(reqs, epoch)
	if bound > MaxFrame+64 {
		return Frame{}, fmt.Errorf("rdma: WRITEBATCH-C too large (%d bytes)", bound)
	}
	w := NewBitWriter(GetBuf(bound))
	w.Uvarint(uint64(len(reqs)))
	var prevDS, prevIdx uint32
	for i := range reqs {
		r := &reqs[i]
		if i == 0 {
			w.Uvarint(uint64(r.DS))
			w.Uvarint(uint64(r.Idx))
		} else {
			if r.DS == prevDS {
				w.WriteBit(true)
			} else {
				w.WriteBit(false)
				w.Uvarint(uint64(r.DS))
			}
			w.Svarint(int64(r.Idx) - int64(prevIdx) - 1)
		}
		prevDS, prevIdx = r.DS, r.Idx
		if epoch {
			w.Uvarint(r.Epoch)
		}
		if r.Extents == nil {
			w.WriteBit(false)
			w.WriteBits(uint64(r.Scheme), 2)
			w.Uvarint(uint64(r.RawLen))
		} else {
			w.WriteBit(true)
			w.Uvarint(uint64(r.ObjSize))
			w.Uvarint(uint64(len(r.Extents)))
			end := uint32(0)
			for k, e := range r.Extents {
				if k == 0 {
					w.Uvarint(uint64(e.Off))
				} else {
					w.Uvarint(uint64(e.Off - end))
				}
				w.Uvarint(uint64(e.Len - 1))
				end = e.Off + e.Len
			}
			w.WriteBits(uint64(r.Scheme), 2)
		}
		if SchemePacked(r.Scheme) {
			w.Uvarint(uint64(len(r.Data)))
		}
	}
	w.Align()
	for i := range reqs {
		if n := len(reqs[i].Data); n > 0 {
			copy(w.Bytes(n), reqs[i].Data)
		}
	}
	p, err := w.Finish()
	if err != nil {
		return Frame{}, err
	}
	if len(p) > MaxFrame {
		PutBuf(p)
		return Frame{}, fmt.Errorf("rdma: WRITEBATCH-C too large (%d bytes)", len(p))
	}
	op := OpWriteBatchC
	if epoch {
		op |= EpochBit
	}
	return Frame{Op: op, Tag: tag, Payload: p}, nil
}

// DecodeWriteBatchCInto parses a write batch payload, appending tuples
// into reqs and extents into the exts arena (tuples' Extents fields
// are subslices of the returned arena; Data fields are subslices of
// p). Every range extent is validated against its tuple's object size.
func DecodeWriteBatchCInto(p []byte, reqs []WriteReqC, exts []Extent, epoch bool) ([]WriteReqC, []Extent, error) {
	r := NewBitReader(p)
	count := r.Uvarint()
	if !compactCountOK(count, p) {
		return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C count %d exceeds payload", count)
	}
	reqs = reqs[:0]
	exts = exts[:0]
	var prevDS, prevIdx uint32
	for i := uint64(0); i < count; i++ {
		var req WriteReqC
		if i == 0 {
			req.DS = uint32(r.Uvarint())
			req.Idx = uint32(r.Uvarint())
		} else {
			if r.ReadBit() {
				req.DS = prevDS
			} else {
				req.DS = uint32(r.Uvarint())
			}
			idx := int64(prevIdx) + 1 + r.Svarint()
			if idx < 0 || idx > 1<<32-1 {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C index delta out of range at tuple %d", i)
			}
			req.Idx = uint32(idx)
		}
		prevDS, prevIdx = req.DS, req.Idx
		if epoch {
			req.Epoch = r.Uvarint()
		}
		if r.ReadBit() {
			// Range tuple.
			objSize := r.Uvarint()
			if objSize == 0 || objSize > MaxFrame {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d bad object size %d", i, objSize)
			}
			req.ObjSize = uint32(objSize)
			nExt := r.Uvarint()
			if nExt == 0 || nExt > MaxExtents {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d bad extent count %d", i, nExt)
			}
			req.nExt = int(nExt)
			end := uint64(0)
			total := uint64(0)
			for k := uint64(0); k < nExt; k++ {
				off := end + r.Uvarint()
				l := r.Uvarint() + 1
				if r.Err() != nil {
					return nil, exts, fmt.Errorf("rdma: truncated WRITEBATCH-C at tuple %d", i)
				}
				if off+l > objSize {
					return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d extent [%d,+%d) exceeds object size %d",
						i, off, l, objSize)
				}
				exts = append(exts, Extent{Off: uint32(off), Len: uint32(l)})
				end = off + l
				total += l
			}
			req.RawLen = uint32(total)
			req.Scheme = uint8(r.ReadBits(2))
		} else {
			req.Scheme = uint8(r.ReadBits(2))
			raw := r.Uvarint()
			if raw > MaxFrame {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d rawLen %d exceeds MaxFrame", i, raw)
			}
			req.RawLen = uint32(raw)
		}
		if SchemePacked(req.Scheme) {
			comp := r.Uvarint()
			if comp == 0 || comp >= uint64(req.RawLen) || comp > uint64(len(p)) {
				return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C tuple %d bad compressed length %d/%d",
					i, comp, req.RawLen)
			}
			// Stash the wire length until the blob pass below.
			req.Data = p[:comp:comp]
		}
		if err := r.Err(); err != nil {
			return nil, exts, fmt.Errorf("rdma: truncated WRITEBATCH-C at tuple %d", i)
		}
		reqs = append(reqs, req)
	}
	r.Align()
	for i := range reqs {
		n := len(reqs[i].Data) // a packed block's stashed length; else 0
		if reqs[i].Scheme == SchemeRaw {
			n = int(reqs[i].RawLen)
		}
		reqs[i].Data = r.Bytes(n)
		if r.Err() != nil {
			return nil, exts, fmt.Errorf("rdma: truncated WRITEBATCH-C blob %d", i)
		}
	}
	if !r.Done() {
		return nil, exts, fmt.Errorf("rdma: WRITEBATCH-C trailing garbage")
	}
	// The exts arena may have been reallocated by append; fix up the
	// tuples' subslices in a final pass.
	off := 0
	for i := range reqs {
		if n := reqs[i].nExt; n > 0 {
			reqs[i].Extents = exts[off : off+n : off+n]
			off += n
		}
	}
	return reqs, exts, nil
}

// --- ACKBATCH-C ---

// EncodeAckBatchC builds the ACKBATCH-C reply: the tuple count
// plus one rejected bit per tuple (rejected is a bitmap in uint64
// words; nil means none rejected). The payload is pooled.
func EncodeAckBatchC(tag uint32, count int, rejected []uint64) Frame {
	w := NewBitWriter(GetBuf(6 + (count+7)/8 + 8))
	w.Uvarint(uint64(count))
	for i := 0; i < count; i++ {
		bit := uint64(0)
		if rejected != nil && rejected[i/64]>>(i%64)&1 != 0 {
			bit = 1
		}
		w.WriteBits(bit, 1)
	}
	p, err := w.Finish()
	if err != nil {
		panic(err)
	}
	return Frame{Op: OpAckBatchC, Tag: tag, Payload: p}
}

// DecodeAckBatchC parses an ACKBATCH-C payload into the tuple
// count and the rejected bitmap, appending words into a caller-owned
// scratch slice (returned grown for reuse); any reports whether at
// least one tuple was rejected.
func DecodeAckBatchC(p []byte, scratch []uint64) (count int, rejected []uint64, any bool, err error) {
	r := NewBitReader(p)
	n := r.Uvarint()
	if !compactCountOK(n, p) {
		return 0, scratch, false, fmt.Errorf("rdma: ACKBATCH-C count %d exceeds payload", n)
	}
	scratch = scratch[:0]
	for i := uint64(0); i < n; i++ {
		if i%64 == 0 {
			scratch = append(scratch, 0)
		}
		if r.ReadBit() {
			scratch[i/64] |= 1 << (i % 64)
			any = true
		}
	}
	r.Align()
	if !r.Done() {
		return 0, scratch, false, fmt.Errorf("rdma: ACKBATCH-C trailing garbage")
	}
	return int(n), scratch, any, nil
}
