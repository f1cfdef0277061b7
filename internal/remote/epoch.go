package remote

import "cards/internal/rdma"

// Epoch-stamped operations. The replication layer versions
// whole-object images with a monotonically increasing epoch so a
// replica can tell stale state from current without byte comparison.
// A stamped op is an ordinary read or write with rdma.EpochBit on its
// frames: same windows, same doorbell coalescing, same tag demux, same
// encoding (zero elision and LZ included), same ErrUncertainWrite fault
// accounting — it only never shares a frame with un-stamped ops. The two
// verbs below are the whole surface (replica.EpochBackend is the
// interface the replication layer consumes them through).

// IssueReadEpoch is IssueRead returning the object's stored epoch
// stamp through done. A zero-length dst is a pure epoch probe.
func (c *PipelinedClient) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	op := &pipeOp{wantEp: true, ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)), dst: dst}
	op.done = func(err error) { done(op.epoch, err) }
	c.enqueue(op)
}

// IssueWriteRangesEpoch is IssueWriteRanges with an epoch stamp; nil
// extents write the full object. The server applies a full object only
// when epoch is at least the stored stamp, and acknowledges either way —
// a positive ack means "the object is at >= epoch", which is exactly the
// idempotent contract replayed write-backs need. It applies a splice
// only onto the immediate-predecessor image (see
// ObjectStore.WriteRangeEpoch); a stale base completes done with
// ErrStaleRangeBase so the replication layer can mark the member
// divergent and schedule a full-object resync.
func (c *PipelinedClient) IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error)) {
	if !rangeWritable(src, exts) {
		exts = nil
	}
	c.enqueue(&pipeOp{
		write: true, wantEp: true, ds: uint32(ds), idx: uint32(idx),
		epoch: epoch, data: src, exts: exts, done: done,
	})
}
