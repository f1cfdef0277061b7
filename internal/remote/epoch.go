package remote

// Epoch-stamped operations. The replication layer versions
// whole-object images with a monotonically increasing epoch so a
// replica can tell stale state from current without byte comparison.
// A stamped op is an ordinary read or write with rdma.EpochBit on its
// frames: same windows, same doorbell coalescing, same tag demux, same
// encoding (zero elision and LZ included), same ErrUncertainWrite fault
// accounting — it only never shares a frame with un-stamped ops.
// (replica.EpochBackend is the interface the replication layer consumes
// them through.)

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
	op := &pipeOp{wantEp: true, ds: uint32(ds), idx: uint32(idx), size: uint32(len(dst)), dst: dst}
	err := c.wait(op)
	return op.epoch, err
}

// WriteObjEpoch is IssueWriteEpoch, waited for.
func (c *PipelinedClient) WriteObjEpoch(ds, idx int, epoch uint64, src []byte) error {
	return c.wait(&pipeOp{write: true, wantEp: true, ds: uint32(ds), idx: uint32(idx), epoch: epoch, data: src})
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
