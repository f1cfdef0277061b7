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

// IssueWriteEpoch is IssueWrite carrying an epoch stamp: a stamped
// range write with no extents.
func (c *PipelinedClient) IssueWriteEpoch(ds, idx int, epoch uint64, src []byte, done func(error)) {
	c.IssueWriteRangesEpoch(ds, idx, epoch, src, nil, done)
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
