package remote

// The data verbs, server side, and the policy both ends share:
// bit-packed batch frames (rdma/compact.go), adaptive per-object
// compression, and dirty-range write-back with read-modify-write
// application.
//
// Compression is decided online, per data structure: both endpoints
// track an EWMA of the observed wire/raw ratio and stop attempting
// compression for a DS whose objects do not shrink, re-probing every
// probePeriod objects so a workload whose data turns compressible is
// noticed. The decision is a heuristic — correctness never depends on
// it (every scheme is self-describing on the wire).
//
// Range writes ship only the modified byte extents of an object; the
// server splices them into the stored image under the store lock. A
// plain range write is unconditional (the farmem runtime serializes
// write-backs per object, and reissue after an uncertain ack is a full
// object); a stamped one is conditional on its base image — see
// WriteRangeEpoch and ErrStaleRangeBase.

import (
	"errors"
	"sync/atomic"

	"cards/internal/obs"
	"cards/internal/rdma"
	"cards/internal/stats"
)

// Wire-efficiency series.
const (
	// MetricWireBytes counts bytes on the wire per frame verb
	// (label "verb"), both directions, payload framing included.
	MetricWireBytes = "cards_wire_bytes_total"
	// MetricWireCompressRatio observes wire/raw per-mille for every
	// object that went through a compression attempt.
	MetricWireCompressRatio = "cards_wire_compression_ratio_permille"
	// MetricRangeWrites counts range-write tuples applied.
	MetricRangeWrites = "cards_remote_range_writes_total"
	// MetricRangeBytesSaved accumulates objSize − shipped bytes over
	// range tuples: what full-object write-back would have cost extra.
	MetricRangeBytesSaved = "cards_wire_range_bytes_saved_total"
	// MetricRangeRejects counts epoch range tuples rejected for a stale
	// base image.
	MetricRangeRejects = "cards_remote_range_rejects_total"
)

// ErrStaleRangeBase is the definitive completion of an epoch-stamped
// range write whose target's stored image missed an epoch: the peer
// cannot splice extents into a stale base. The caller (the replica
// fan-out) marks the member divergent; resync repairs it with full
// objects.
var ErrStaleRangeBase = errors.New("remote: range write rejected: stale base image on peer")

// wireMetrics caches the verb-labeled wire-byte counters plus the
// compression and range-write series, so the hot paths never touch the
// registry map lock. Built once per endpoint (server or pipelined
// client) at construction.
type wireMetrics struct {
	byVerb       map[rdma.Op]*stats.Counter
	other        *stats.Counter
	ratio        *stats.Histogram
	rangeWrites  *stats.Counter
	rangeSaved   *stats.Counter
	rangeRejects *stats.Counter
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	// The seven verbs, plus the three the epoch modifier applies to.
	ops := []rdma.Op{
		rdma.OpReadBatchC, rdma.OpDataBatchC, rdma.OpWriteBatchC, rdma.OpAckBatchC,
		rdma.OpChaseBatch, rdma.OpChaseData, rdma.OpErrTag,
		rdma.OpReadBatchC | rdma.EpochBit, rdma.OpDataBatchC | rdma.EpochBit, rdma.OpWriteBatchC | rdma.EpochBit,
	}
	m := &wireMetrics{
		byVerb:       make(map[rdma.Op]*stats.Counter, len(ops)),
		other:        reg.Counter(MetricWireBytes, "verb", "other"),
		ratio:        reg.Histogram(MetricWireCompressRatio),
		rangeWrites:  reg.Counter(MetricRangeWrites),
		rangeSaved:   reg.Counter(MetricRangeBytesSaved),
		rangeRejects: reg.Counter(MetricRangeRejects),
	}
	for _, op := range ops {
		m.byVerb[op] = reg.Counter(MetricWireBytes, "verb", op.String())
	}
	return m
}

// add charges one frame's wire bytes to its verb's counter. The map is
// immutable after construction, so concurrent adds are safe.
func (m *wireMetrics) add(op rdma.Op, n uint64) {
	if m == nil {
		return
	}
	if c, ok := m.byVerb[op]; ok {
		c.Add(n)
		return
	}
	m.other.Add(n)
}

// observeRatio records one compression attempt's outcome.
func (m *wireMetrics) observeRatio(permille uint64) {
	if m != nil {
		m.ratio.Observe(permille)
	}
}

// Adaptive compression policy: one packed word per DS slot.
//
//	bits  0..15 — EWMA of wire/raw per-mille (0 = no observation yet)
//	bits 16..31 — objects skipped since the last probe
//
// Updates are load/store rather than CAS: a lost update under a race
// costs one stale decision, which the EWMA absorbs — the policy is a
// heuristic, not a correctness mechanism.
const (
	policySlots       = 256 // DS slots (power of two; collisions just share a verdict)
	probePeriod       = 32  // re-probe an incompressible DS every Nth object
	compressPermille  = 900 // compress while the EWMA beats this ratio
	policyMinPermille = 1   // floor so a stored EWMA is never mistaken for "unseen"
)

type compressPolicy struct {
	state [policySlots]atomic.Uint64
}

func (p *compressPolicy) slot(ds uint32) *atomic.Uint64 {
	return &p.state[ds&(policySlots-1)]
}

// shouldCompress reports whether the next object of ds is worth a
// compression attempt: always while unseen or historically shrinking,
// every probePeriod-th object otherwise. A call counts an object, so
// each object gets exactly one.
func (p *compressPolicy) shouldCompress(ds uint32) bool {
	s := p.slot(ds)
	v := s.Load()
	ewma := v & 0xFFFF
	if ewma == 0 || ewma < compressPermille {
		return true
	}
	skip := (v>>16)&0xFFFF + 1
	probe := skip >= probePeriod
	if probe {
		skip = 0
	}
	s.Store(v&^uint64(0xFFFF0000) | skip<<16)
	return probe
}

// observe feeds one attempt's wire/raw outcome into the DS's EWMA
// (weight 1/8). A failed attempt reports wireLen == rawLen.
func (p *compressPolicy) observe(ds uint32, rawLen, wireLen int) {
	if rawLen <= 0 {
		return
	}
	ratio := uint64(wireLen) * 1000 / uint64(rawLen)
	if ratio < policyMinPermille {
		ratio = policyMinPermille
	}
	if ratio > 0xFFFF {
		ratio = 0xFFFF
	}
	s := p.slot(ds)
	v := s.Load()
	ewma := v & 0xFFFF
	if ewma == 0 {
		ewma = ratio
	} else {
		ewma = (ewma*7 + ratio) / 8
	}
	s.Store(v&^uint64(0xFFFF) | ewma)
}

// WriteRange splices the extents' bytes (concatenated in raw) into the
// stored object, which is first grown or truncated to objSize — the
// read-modify-write the range sub-encoding relies on. The splice is
// atomic under the store lock. Extents were validated against objSize
// at decode time.
func (s *ObjectStore) WriteRange(ds, idx, objSize uint32, exts []rdma.Extent, raw []byte) {
	s.writeRange(ds, idx, false, 0, objSize, exts, raw)
}

// WriteRangeEpoch is WriteRange with the replication layer's
// conditional-apply contract, extended for partial images: the splice
// needs a base at exactly the predecessor epoch (or at/above the
// stamped epoch, where reapplying the same bytes is a no-op — the
// idempotent replay of an uncertain ack). A base below the predecessor
// missed an epoch; splicing into it would fabricate state, so the
// write is rejected and the sender must fall back to full objects.
func (s *ObjectStore) WriteRangeEpoch(ds, idx uint32, epoch uint64, objSize uint32, exts []rdma.Extent, raw []byte) (rejected bool) {
	return s.writeRange(ds, idx, true, epoch, objSize, exts, raw)
}

// writeRange is the one way a splice is applied, under WriteRangeEpoch's
// rule when stamped.
func (s *ObjectStore) writeRange(ds, idx uint32, stamped bool, epoch uint64, objSize uint32, exts []rdma.Extent, raw []byte) (rejected bool) {
	k := [2]uint32{ds, idx}
	s.mu.Lock()
	defer s.mu.Unlock()
	im := s.m[k]
	if stamped {
		if im.epoch > epoch {
			return false // newer image already present: obsolete tuple, drop with a positive ack
		}
		if im.epoch+1 < epoch {
			return true // missed an epoch: the base is stale, cannot splice
		}
		im.epoch = epoch
	}
	s.m[k] = im.splice(objSize, exts, raw)
	return false
}

// splice returns the image with the extents laid over it, its epoch
// stamp carried over, its version advanced and no block kept. A base
// that is not already objSize raw bytes — another size, a compressed or
// zero image, absent — is first materialised as one; the result stays
// raw.
func (im image) splice(objSize uint32, exts []rdma.Extent, raw []byte) image {
	if im.scheme != rdma.SchemeRaw || uint32(len(im.data)) != objSize {
		obj := make([]byte, objSize)
		im.expand(obj)
		im.scheme, im.rawLen, im.data = rdma.SchemeRaw, objSize, obj
	}
	im.ver, im.packed = im.ver+1, im.packed[:0]
	off := uint32(0)
	for _, e := range exts {
		copy(im.data[e.Off:e.Off+e.Len], raw[off:off+e.Len])
		off += e.Len
	}
	return im
}

// errReplyTooLarge fails a read or chase batch whose reply would not fit
// a frame.
var errReplyTooLarge = errors.New("batch reply exceeds frame limit")

// readBatch answers one READBATCH-C. Each object is gathered from the
// store in the cheapest form this reply can carry — a stored zero image
// as a zero segment, a stored LZ or bit-packed block verbatim when the
// session asked for compression and the adaptive policy expects the DS to
// shrink, raw bytes otherwise, which are then classified (zero /
// compressed / raw) as they always were — and packed into one DATABATCH-C
// by the worker's pooled builder, which keeps a raw image's pack for the
// reads after it (keepPacked). A stamped request gets a stamped reply:
// every segment carries the object's stored epoch, read under the same
// lock hold as its bytes.
func (s *Server) readBatch(f rdma.Frame, w *workerScratch, compress bool) (rdma.Frame, served, error) {
	reqs, err := rdma.DecodeReadBatchCInto(f.Payload, w.reads[:0])
	if err != nil {
		return rdma.Frame{}, served{}, err
	}
	w.reads = reqs
	epoch := f.Op&rdma.EpochBit != 0
	size := rdma.BatchHdrBound
	for _, r := range reqs {
		size += rdma.DataSegBound(int(r.Size), epoch)
	}
	if size > rdma.MaxFrame {
		return rdma.Frame{}, served{}, errReplyTooLarge
	}
	// One compression verdict per request, drawn once and in request
	// order before the gather: the policy counts draws to pace its
	// re-probes of an incompressible DS (so each request draws exactly
	// once), and a batch's verdicts never hang on what its own earlier
	// objects shrank to.
	try := w.try[:0]
	for _, r := range reqs {
		try = append(try, compress && s.cpolicy.shouldCompress(r.DS))
	}
	w.try = try
	cb := &w.cb
	cb.Reset()
	if epoch {
		cb.BeginEpoch()
	}
	for i, r := range reqs {
		buf := cb.Stage(int(r.Size))
		scheme, wireLen, stamp, ver := s.Store.readWire(r.DS, r.Idx, buf, try[i])
		if scheme == rdma.SchemeRaw {
			if scheme, wireLen = cb.Add(buf, try[i]); ver != 0 && rdma.SchemePacked(scheme) {
				s.Store.keepPacked(r.DS, r.Idx, ver, scheme, cb.Last())
			}
		} else {
			cb.AddWire(scheme, len(buf), buf[:wireLen])
		}
		if epoch {
			cb.Stamp(stamp)
		}
		if try[i] && scheme != rdma.SchemeZero {
			s.cpolicy.observe(r.DS, len(buf), wireLen)
			if len(buf) > 0 {
				s.metrics.wire.observeRatio(uint64(wireLen) * 1000 / uint64(len(buf)))
			}
		}
	}
	resp, err := cb.Frame(f.Tag)
	return resp, served{family: rdma.OpReadBatchC, n: len(reqs)}, err
}

// writeScratch is the per-worker reusable state of the write path:
// decoded tuples, the shared extent arena, the reject bitmap, and the
// materialization buffer.
type writeScratch struct {
	reqs []rdma.WriteReqC
	exts []rdma.Extent
	rej  []uint64
	lz   []byte // UnpackBlock target
}

func (cw *writeScratch) release() {
	rdma.PutBuf(cw.lz)
	cw.lz = nil
}

// materialize returns tuple r's raw bytes, expanded into the worker's
// scratch unless they came raw.
func (cw *writeScratch) materialize(r *rdma.WriteReqC) ([]byte, error) {
	if r.Scheme == rdma.SchemeRaw {
		return r.Data, nil
	}
	if cap(cw.lz) < int(r.RawLen) {
		rdma.PutBuf(cw.lz)
		cw.lz = rdma.GetBuf(int(r.RawLen))
	}
	dst := cw.lz[:r.RawLen]
	return dst, rdma.UnpackBlock(r.Scheme, dst, r.Data)
}

// writeBatch applies one WRITEBATCH-C frame, stamped or not: tuples
// apply in batch order — full objects stored in the wire form they came
// in (an LZ block after one validating decode into the worker's
// scratch, a bit-packed block after rdma.CheckWords, which needs
// none), range tuples spliced read-modify-write — and the whole batch is
// acknowledged with one ACKBATCH-C whose bitmap marks the stamped range
// tuples rejected for a stale base. Writes within a batch are ordered;
// two batches may be applied in either order (see the ServeConn
// contract). A stamped full-object write older than the stored image is
// dropped but still acknowledged: the object is at an epoch at least as
// new, which is what the sender's replay logic needs to know.
func (s *Server) writeBatch(f rdma.Frame, w *workerScratch) (rdma.Frame, served, error) {
	cw := &w.cw
	epoch := f.Op&rdma.EpochBit != 0
	reqs, exts, err := rdma.DecodeWriteBatchCInto(f.Payload, cw.reqs[:0], cw.exts[:0], epoch)
	cw.reqs, cw.exts = reqs, exts
	if err != nil {
		return rdma.Frame{}, served{}, err
	}
	words := (len(reqs) + 63) / 64
	if cap(cw.rej) < words {
		cw.rej = make([]uint64, words)
	}
	rej := cw.rej[:words]
	clear(rej)
	for i := range reqs {
		r := &reqs[i]
		// For a full object this is admission — the validating decode of an
		// LZ block, the header-and-bitmap check that proves a bit-packed one
		// (raw and zero tuples cost nothing here); only range tuples use raw.
		var raw []byte
		var merr error
		if r.Extents == nil && r.Scheme == rdma.SchemeWords {
			if !rdma.CheckWords(r.Data, int(r.RawLen)) {
				merr = rdma.ErrCorrupt
			}
		} else if r.Extents != nil || r.Scheme == rdma.SchemeLZ {
			raw, merr = cw.materialize(r)
		}
		if merr != nil {
			// A tuple that passed CRC but fails decompression is corrupt
			// framing: reject the whole batch definitively. Earlier tuples
			// have applied — the client's write-back layer reissues full
			// objects on error, which is idempotent.
			return rdma.Frame{}, served{}, merr
		}
		if r.Extents == nil {
			s.Store.writeWire(r.DS, r.Idx, epoch, r.Epoch, r.Scheme, r.RawLen, r.Data)
			continue
		}
		s.metrics.wire.rangeWrites.Inc()
		if r.ObjSize > r.RawLen {
			s.metrics.wire.rangeSaved.Add(uint64(r.ObjSize - r.RawLen))
		}
		if s.Store.writeRange(r.DS, r.Idx, epoch, r.Epoch, r.ObjSize, r.Extents, raw) {
			rej[i/64] |= 1 << (i % 64)
			s.metrics.wire.rangeRejects.Inc()
		}
	}
	return rdma.EncodeAckBatchC(f.Tag, len(reqs), rej), served{family: rdma.OpWriteBatchC, n: len(reqs)}, nil
}

// rangeWritable reports whether exts is a range set the wire tier can
// ship — bounded extent count, and at least one extent strictly
// smaller than the object (otherwise a full write is never worse).
func rangeWritable(src []byte, exts []rdma.Extent) bool {
	return len(exts) > 0 && len(exts) <= rdma.MaxExtents && extentBytes(exts) < len(src)
}

// extentBytes is the number of object bytes a range write ships.
func extentBytes(exts []rdma.Extent) int {
	n := 0
	for _, e := range exts {
		n += int(e.Len)
	}
	return n
}

// IssueWriteRanges implements farmem.RangeWriteStore, the asynchronous
// dirty-range write-back: exts are the object's modified byte ranges,
// sorted and non-overlapping, and src holds its bytes at least inside
// them. The write rides the pipeline and only the extents' bytes ship
// (spliced server-side read-modify-write); nil extents, extents that
// cover the whole object, or more than rdma.MaxExtents of them mean the
// full object. src and exts must stay valid and unmodified
// until done runs; done is invoked exactly once (possibly on the reader
// goroutine) when the server has acknowledged the write or it failed,
// and must not block. A connection fault before the ack completes the
// write with ErrUncertainWrite — the transport never silently replays a
// write that may already have been applied; the caller reissues if (as
// with full-object write-backs) the write is idempotent.
func (c *PipelinedClient) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	c.enqueue(writeOp(ds, idx, src, exts, done))
}

// IssueWriteRangesEpoch (replica.EpochBackend) is IssueWriteRanges with
// an epoch stamp. The server applies a full object only when epoch is at
// least the stored stamp, and acks either way: an ack means "the object
// is at >= epoch", the idempotent contract replayed write-backs need. A
// splice applies only onto the immediate predecessor image
// (ObjectStore.WriteRangeEpoch); onto a stale base done gets
// ErrStaleRangeBase, and the replication layer resyncs the member.
func (c *PipelinedClient) IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error)) {
	op := writeOp(ds, idx, src, exts, done)
	op.wantEp, op.epoch = true, epoch
	c.enqueue(op)
}

// writeOp is the op every write verb enqueues: the full object unless
// exts are rangeWritable.
func writeOp(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) *pipeOp {
	if !rangeWritable(src, exts) {
		exts = nil
	}
	return &pipeOp{write: true, ds: uint32(ds), idx: uint32(idx), data: src, exts: exts, done: done}
}

// compressInto applies the client-side compression decision to one
// outgoing object. One scan classifies it — all zero, small words, or
// neither; then, when the session asked for OptCompress and the adaptive
// policy expects the DS to shrink, an object of small words is
// bit-packed and any other gets an LZ pass, into a pooled buffer. It
// returns the scheme and the wire bytes: nil for SchemeZero, src itself
// for SchemeRaw, a pooled buffer the caller must PutBuf for SchemeLZ and
// SchemeWords. The policy is atomic: nothing here needs mu.
func (c *PipelinedClient) compressInto(ds uint32, src []byte) (scheme uint8, wire []byte) {
	s, w := rdma.ScanWords(src)
	if w == 0 {
		return rdma.SchemeZero, nil
	}
	if !c.compress || !c.cpolicy.shouldCompress(ds) {
		return rdma.SchemeRaw, src
	}
	buf := rdma.GetBuf(rdma.CompressBound(len(src))) // covers WordsBound
	scheme, n := rdma.SchemeRaw, len(src)
	if w > 0 {
		scheme, n = rdma.SchemeWords, rdma.PackWords(buf, src, s, w)
	} else if m, ok := rdma.LZCompress(buf, src); ok && m < len(src) {
		scheme, n = rdma.SchemeLZ, m
	}
	c.cpolicy.observe(ds, len(src), n)
	if m := c.metrics; m != nil && len(src) > 0 {
		m.wire.observeRatio(uint64(n) * 1000 / uint64(len(src)))
	}
	if scheme == rdma.SchemeRaw {
		rdma.PutBuf(buf)
		return rdma.SchemeRaw, src
	}
	return scheme, buf[:n]
}

// encodeWrites is the write family's encoder (see encode): per op,
// range writes first gather their extents' bytes out of the full image,
// then the compression decision runs on whatever ships. The batch
// encoder copies every blob into the frame payload, so the pooled
// gather/compress buffers go home as soon as it returns.
func (c *PipelinedClient) encodeWrites(p plannedFrame, sc *flushScratch) (rdma.Frame, error) {
	sc.writes = sc.writes[:0]
	for _, op := range p.ops {
		r := rdma.WriteReqC{DS: op.ds, Idx: op.idx, Epoch: op.epoch}
		src := op.data
		if op.exts != nil {
			r.ObjSize = uint32(len(op.data))
			r.Extents = op.exts
			src = rdma.GetBuf(extentBytes(op.exts))
			sc.bufs = append(sc.bufs, src)
			off := 0
			for _, e := range op.exts {
				off += copy(src[off:], op.data[e.Off:e.Off+e.Len])
			}
		}
		r.Scheme, r.Data = c.compressInto(op.ds, src)
		if rdma.SchemePacked(r.Scheme) {
			sc.bufs = append(sc.bufs, r.Data)
		}
		r.RawLen = uint32(len(src))
		sc.writes = append(sc.writes, r)
	}
	f, err := rdma.EncodeWriteBatchCPooled(p.tag, sc.writes, p.ops[0].wantEp)
	for _, b := range sc.bufs {
		rdma.PutBuf(b)
	}
	sc.bufs = sc.bufs[:0]
	return f, err
}
