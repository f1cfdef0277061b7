package remote

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"cards/internal/rdma"
)

// Traversal offload. A CHASEBATCH ships one or more compact traversal
// programs to the server, which walks each chain in its local store and
// answers with the whole path in one CHASEDATA — collapsing K dependent
// round trips into one. Chases are read-only and ride the ordinary read
// window: same doorbell coalescing, same tag demux, and the same
// idempotent replay on reconnect as a read. (farmem.AsyncChaseStore is
// the interface the runtime consumes them through.)

// chaseOp is the op both chase verbs enqueue, once the program passed
// the client-side checks: a malformed or unboundable program fails at
// once instead of as a server ERRTAG mid-pipeline.
func chaseOp(req rdma.ChaseReq) (*pipeOp, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if rdma.ChaseReplyBound([]rdma.ChaseReq{req}) > rdma.MaxFrame {
		return nil, fmt.Errorf("remote: chase reply bound exceeds frame limit (%d hops of %d bytes)", req.Hops, req.ObjSize)
	}
	return &pipeOp{chase: true, ds: req.DS, idx: req.Start, creq: req}, nil
}

// ChaseCapable implements farmem.AsyncChaseStore. The chase verbs are part
// of the protocol, so a client offloads whenever it has a session: not
// while down, not once closed.
func (c *PipelinedClient) ChaseCapable() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil && !c.down
}

// IssueChase implements farmem.AsyncChaseStore: the program is enqueued
// like a read and done is invoked exactly once (possibly on the reader
// goroutine) with the decoded, caller-owned path. done must not block.
func (c *PipelinedClient) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	op, err := chaseOp(req)
	if err != nil {
		done(rdma.ChaseResult{}, err)
		return
	}
	op.done = func(err error) { done(op.cres, err) }
	c.enqueue(op)
}

// Chase implements farmem.AsyncChaseStore: the chase op, waited for.
func (c *PipelinedClient) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	op, err := chaseOp(req)
	if err != nil {
		return rdma.ChaseResult{}, err
	}
	err = c.wait(op)
	return op.cres, err
}

// copyChaseResult deep-copies a decoded result out of a pooled reply
// frame — one backing array holds every hop's bytes — so the completed
// op owns its path after the frame returns to the buffer pool.
func copyChaseResult(res rdma.ChaseResult) rdma.ChaseResult {
	out := rdma.ChaseResult{Status: res.Status, Final: res.Final}
	if len(res.Hops) == 0 {
		return out
	}
	total := 0
	for _, h := range res.Hops {
		total += len(h.Data)
	}
	buf := make([]byte, total)
	out.Hops = make([]rdma.ChaseHop, len(res.Hops))
	off := 0
	for i, h := range res.Hops {
		n := copy(buf[off:], h.Data)
		out.Hops[i] = rdma.ChaseHop{Idx: h.Idx, Data: buf[off : off+n : off+n]}
		off += n
	}
	return out
}

// chaseBatch validates every program, then walks each chain directly
// into one pooled CHASEDATA reply. Malformed programs are rejected with
// a definitive ERRTAG — in particular a zero hop budget or an
// out-of-object next-pointer offset never reaches the walk, and the walk
// itself is bounded by the hop budget so an unterminated (cyclic) chain
// cannot loop the server.
func (s *Server) chaseBatch(f rdma.Frame, w *workerScratch) (rdma.Frame, served, error) {
	reqs, err := rdma.DecodeChaseBatchInto(f.Payload, w.chases)
	if err != nil {
		return rdma.Frame{}, served{}, err
	}
	w.chases = reqs
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return rdma.Frame{}, served{}, err
		}
	}
	bound := rdma.ChaseReplyBound(reqs)
	if bound > rdma.MaxFrame {
		return rdma.Frame{}, served{}, errReplyTooLarge
	}
	cw := rdma.BeginChaseData(rdma.GetBuf(int(bound)), len(reqs))
	hops := 0
	for _, r := range reqs {
		hops += s.chaseOne(&cw, r)
	}
	return cw.Frame(f.Tag), served{family: rdma.OpChaseBatch, n: len(reqs), hops: hops}, nil
}

// chaseOne walks one validated program against the local store, gathers
// each visited object into the reply in place, and returns the hop
// count.
func (s *Server) chaseOne(w *rdma.ChaseDataWriter, r rdma.ChaseReq) int {
	w.BeginResult()
	shift := uint(bits.TrailingZeros32(r.ObjSize)) // ObjSize validated power of two
	idx := r.Start
	for hop := uint32(0); ; hop++ {
		slot := w.NextHop(idx, int(r.ObjSize))
		s.Store.ReadInto(r.DS, idx, slot)
		word := binary.LittleEndian.Uint64(slot[r.NextOff:])
		if !rdma.ChaseAddrTagged(word) || rdma.ChaseAddrDS(word) != r.DS {
			// Terminal: an unmanaged word, or a pointer out of the
			// program's data structure. The raw word goes back so the
			// client sees exactly what a per-hop read would have.
			w.FinishResult(rdma.ChaseDone, word)
			return int(hop) + 1
		}
		if hop+1 == r.Hops {
			// Budget spent with the chain still live: hand back the tagged
			// address of the first unvisited node for the client to resume
			// from.
			w.FinishResult(rdma.ChaseHops, word)
			return int(r.Hops)
		}
		idx = uint32(rdma.ChaseAddrOff(word) >> shift)
	}
}
