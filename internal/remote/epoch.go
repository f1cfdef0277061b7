package remote

import "cards/internal/rdma"

// Epoch-stamped operations. The replication layer versions
// whole-object images with a monotonically increasing epoch so a
// replica can tell stale state from current without byte comparison.
// The verbs ride the ordinary pipelined windows — same doorbell
// coalescing, same tag demux, same ErrUncertainWrite fault accounting —
// in their own frames. (replica.EpochBackend is the interface the
// replication layer consumes them through.)

// Wire overhead the flusher charges per epoch op when bounding a batch
// against rdma.MaxFrame: the reply segment header of an epoch read
// (u64 epoch | u32 len) and the tuple header of an epoch write
// (u32 ds | u32 idx | u64 epoch | u32 len).
const (
	epochRespHdrSize  = 12
	epochTupleHdrSize = 20
)

// IssueReadEpoch is IssueRead returning the object's stored epoch
// stamp through done.
func (c *PipelinedClient) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	c.enqueue(&pipeOp{
		wantEp: true, ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)),
		dst: dst, edone: done,
	})
}

// IssueWriteEpoch is IssueWrite carrying an epoch stamp. The server
// applies the write only when epoch is at least the stored stamp, and
// acknowledges either way — a positive ack means "the object is at >=
// epoch", which is exactly the idempotent contract replayed write-backs
// need.
func (c *PipelinedClient) IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error)) {
	c.enqueue(&pipeOp{
		write: true, wantEp: true, ds: uint32(ds), idx: uint32(idx),
		epoch: epoch, data: src, done: done,
	})
}

// ReadObjEpoch is IssueReadEpoch, waited for.
func (c *PipelinedClient) ReadObjEpoch(ds, idx int, dst []byte) (uint64, error) {
	op := &pipeOp{
		wantEp: true, ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)),
		dst: dst, ch: make(chan error, 1),
	}
	c.enqueue(op)
	err := <-op.ch
	return op.epoch, err
}

// WriteObjEpoch is IssueWriteEpoch, waited for.
func (c *PipelinedClient) WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error {
	op := &pipeOp{
		write: true, wantEp: true, ds: uint32(ds), idx: uint32(idx),
		epoch: epoch, data: src, ch: make(chan error, 1),
	}
	c.enqueue(op)
	return <-op.ch
}

// ReadObjEpoch forwards over the replaceable client.
func (r *Resilient) ReadObjEpoch(ds, idx int, dst []byte) (uint64, error) {
	c, err := r.client()
	if err != nil {
		return 0, err
	}
	epoch, err := c.ReadObjEpoch(ds, idx, dst)
	r.retireOn(c, err)
	return epoch, err
}

// WriteObjEpoch forwards over the replaceable client.
func (r *Resilient) WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error {
	return r.do(func(c *PipelinedClient) error { return c.WriteObjEpoch(ds, idx, epoch, src) })
}

// IssueReadEpoch forwards over the replaceable client.
func (r *Resilient) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	c, err := r.client()
	if err != nil {
		done(0, err)
		return
	}
	c.IssueReadEpoch(ds, idx, dst, func(epoch uint64, err error) {
		r.retireOn(c, err)
		done(epoch, err)
	})
}

// IssueWriteEpoch forwards over the replaceable client.
func (r *Resilient) IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error)) {
	if c := r.clientOr(done); c != nil {
		c.IssueWriteEpoch(ds, idx, epoch, src, r.retiring(c, done))
	}
}

// readEpochBatch gathers every requested object and its stored epoch
// stamp directly into one pooled DATAEPOCHBATCH reply.
func (s *Server) readEpochBatch(f rdma.Frame, w *workerScratch) (rdma.Frame, served, error) {
	reqs, err := rdma.DecodeReadEpochBatchInto(f.Payload, w.reads)
	if err != nil {
		return rdma.Frame{}, served{}, err
	}
	w.reads = reqs
	size := rdma.DataEpochBatchSize(reqs)
	if size > rdma.MaxFrame {
		return rdma.Frame{}, served{}, errReplyTooLarge
	}
	dw := rdma.BeginDataEpochBatch(rdma.GetBuf(size), len(reqs))
	for _, r := range reqs {
		// The copy and the stamp come from one lock acquisition, so each
		// segment is a consistent (epoch, bytes) snapshot.
		slot := dw.NextDeferred(int(r.Size))
		dw.StampEpoch(s.Store.ReadEpochInto(r.DS, r.Idx, slot))
	}
	return dw.Frame(f.Tag), served{family: rdma.OpReadBatch, n: len(reqs)}, nil
}

// writeEpochBatch conditionally applies every write in batch order
// (stale epochs are dropped — see ObjectStore.WriteEpoch), then
// acknowledges the whole batch with one ACKBATCH. A dropped stale write
// still counts as acknowledged: the object is at an epoch at least as
// new, which is what the sender's replay logic needs to know.
func (s *Server) writeEpochBatch(f rdma.Frame, w *workerScratch) (rdma.Frame, served, error) {
	reqs, err := rdma.DecodeWriteEpochBatchInto(f.Payload, w.ewrites)
	if err != nil {
		return rdma.Frame{}, served{}, err
	}
	w.ewrites = reqs
	for _, r := range reqs {
		s.Store.WriteEpoch(r.DS, r.Idx, r.Epoch, r.Data)
	}
	return rdma.EncodeAckBatch(f.Tag, len(reqs)), served{family: rdma.OpWriteBatch, n: len(reqs)}, nil
}
