package farmem

import "cards/internal/rdma"

// Asynchronous batched write-back pipeline.
//
// On the synchronous path a dirty eviction pays a full store round trip
// inside the deref that triggered it: the application thread blocks on
// WriteObj before the freed frame can be reused. With a store that
// implements AsyncWriteStore (the pipelined remote client, the sharded
// store), the runtime instead
//
//   - copies the dirty payload into a pooled staging buffer,
//   - frees the frame immediately (the eviction completes at memory
//     speed),
//   - issues the write asynchronously; the transport coalesces staged
//     writes from many evictions into WRITEBATCH doorbells.
//
// Invariants the staging map enforces:
//
//   - Read-your-writes: while a write-back is staged, the staging buffer
//     holds the freshest bytes. A deref of the object is served by
//     copying staging -> frame (derefFromStaging), never by a remote
//     READ that could observe the pre-write value; prefetchers skip such
//     objects for the same reason.
//   - Per-object write ordering: the transport may reorder independent
//     WRITEBATCH frames (they execute on a worker pool), so the runtime
//     never has two unacknowledged writes of one object in flight — a
//     re-eviction waits out the object's previous staged write first.
//   - Never silently retry a write: an uncertain or failed async write
//     is reissued *here*, synchronously, where the full-object payload
//     makes the replay idempotent (see storeWrite). If even the reissue
//     is refused (degraded shard), the entry parks: the staging buffer
//     then holds the only durable copy until a recovery drain.
//
// Memory is bounded by Config.WriteBackBudget: once the budgeted staged
// payload exceeds it, the next dirty eviction stalls in virtual time on
// the oldest budgeted write (backpressure), after first harvesting any
// completions that arrived opportunistically. An entry whose ack has not
// arrived by then retires rather than blocking on the wire (waitOldestWB),
// so real staging is at most twice the budget.

// AsyncWriteStore is a Store that can additionally issue writes without
// blocking the caller. IssueWrite starts persisting src and returns
// immediately; done is invoked exactly once — possibly on another
// goroutine, possibly before IssueWrite returns — when the write is
// durable or has failed, and must not block. src must remain valid and
// unmodified until done fires. Detected by type assertion, so plain
// Stores keep the synchronous eviction path unchanged.
type AsyncWriteStore interface {
	Store
	IssueWrite(ds, idx int, src []byte, done func(error))
}

// wbKey identifies one staged object.
type wbKey struct {
	ds, idx int
}

// pendingWB is one staged write-back: the payload snapshot, its
// completion, and the virtual cycle at which the transfer settles.
type pendingWB struct {
	key  wbKey
	d    *DS
	idx  int
	buf  []byte // pooled staging snapshot of the dirty payload
	size int
	// exts, when non-nil, are the modified ranges within buf: the write
	// was issued as a range write (dirtyrange.go). buf still holds the
	// FULL object so a synchronous reissue replays the whole image —
	// unless partial is set: the entry is an unread object's splice
	// (see deref), buf is valid only inside exts, and the reissue first
	// rebuilds the image from the base (rewriteWB).
	exts    []rdma.Extent
	partial bool
	doneAt  uint64 // virtual settle cycle (link.WriteBackAsync)
	// parked marks an entry whose write — async and sync reissue both —
	// was refused (degraded shard): buf holds the only durable copy and
	// the entry waits for a recovery drain.
	parked bool
	// retired marks an entry the budget stall has settled in virtual
	// time before its ack arrived: its bytes count in wbRetired, not
	// wbBytes, and it is a staged entry in every other respect.
	retired bool
	completion
}

// getWBBuf returns a staging buffer of exactly n bytes from the
// runtime's free list (single-threaded, so no locking). Buffers are
// pooled per size — data structures have fixed object sizes, so the
// lists converge to a handful of classes.
func (r *Runtime) getWBBuf(n int) []byte {
	if free := r.wbFree[n]; len(free) > 0 {
		b := free[len(free)-1]
		r.wbFree[n] = free[:len(free)-1]
		return b
	}
	return make([]byte, n)
}

// putWBBuf parks a staging buffer for reuse, keeping spares per size
// class up to twice the budget — the most staging holds, retired
// entries included — so the buffers of a bulk release are reused
// rather than collected.
func (r *Runtime) putWBBuf(b []byte) {
	if b == nil {
		return
	}
	if free := r.wbFree[len(b)]; uint64((len(free)+1)*len(b)) <= 2*r.wbBudget {
		r.wbFree[len(b)] = append(free, b)
	}
}

// releaseWB removes a settled entry from the pending set and recycles
// its staging buffer. Order-list entries are dropped lazily (validity is
// rechecked against the map on every scan).
func (r *Runtime) releaseWB(p *pendingWB) {
	delete(r.wbPending, p.key)
	if p.retired {
		r.wbRetired -= uint64(p.size)
	} else {
		r.wbBytes -= uint64(p.size)
	}
	r.putWBBuf(p.buf)
	p.buf = nil
	r.putExtBuf(p.exts)
	p.exts = nil
}

// liveWB reports whether p is still its object's staged entry. The
// order list drops released entries lazily: every walk rechecks here.
func (r *Runtime) liveWB(p *pendingWB) bool { return r.wbPending[p.key] == p }

// rewriteWB writes a staged entry back synchronously from its snapshot
// and, when the store takes it, charges the round trip and releases the
// entry. A splice is never replayed as extents: a partial entry first
// reads the base and lays its extents over it, and the whole image goes
// out (an entry whose base read is refused stays partial).
func (r *Runtime) rewriteWB(p *pendingWB) error {
	if p.partial {
		buf := r.getWBBuf(p.size)
		if err := r.storeRead(p.d, p.idx, buf); err != nil {
			r.putWBBuf(buf)
			return err
		}
		for _, e := range p.exts {
			copy(buf[e.Off:e.Off+e.Len], p.buf[e.Off:])
		}
		r.putWBBuf(p.buf)
		p.buf, p.partial = buf, false
	}
	err := r.storeWrite(p.d, p.idx, p.buf)
	if err == nil {
		r.link.WriteBack(p.size)
		r.releaseWB(p)
	}
	return err
}

// settleWB consumes one staged write's completion (blocking if needed).
// On failure it records the fault against the breaker — unless the
// failure is a contained per-shard degradation — and reissues the write
// synchronously from the staging snapshot (the idempotent replay the
// transport refuses to do). Returns true when the entry was released,
// false when it parked on a degraded shard.
func (r *Runtime) settleWB(p *pendingWB) bool {
	if err := p.wait(); err == nil {
		r.releaseWB(p)
		return true
	}
	r.noteFault(p.err)
	r.stats.WriteBackReissues++
	if r.rewriteWB(p) == nil {
		return true
	}
	p.parked = true
	r.degradedDirty = true
	return false
}

// sweepWB is the one walk over the order list: it visits every live
// entry in issue order, keeps those keep reports true for, and compacts
// the list in place. It reports false, visiting nothing, when a sweep is
// already active: keep's synchronous reissues run through storeOp, whose
// recovery hooks reach drainParked, and that must not rebuild the list
// under the walk above it.
func (r *Runtime) sweepWB(keep func(p *pendingWB) bool) bool {
	if r.wbBusy {
		return false
	}
	r.wbBusy = true
	defer func() { r.wbBusy = false }()
	kept := r.wbOrder[:0]
	for _, p := range r.wbOrder {
		if r.liveWB(p) && keep(p) {
			kept = append(kept, p)
		}
	}
	r.wbOrder = kept
	return true
}

// harvestWriteBacks opportunistically settles every staged write whose
// completion has already arrived, without blocking. Called before the
// budget check so completed writes never cause a backpressure stall.
func (r *Runtime) harvestWriteBacks() {
	r.sweepWB(func(p *pendingWB) bool {
		return p.parked || r.clock.Now() < p.doneAt || !p.ready() || !r.settleWB(p)
	})
}

// waitOldestWB stalls in virtual time on the oldest budgeted staged
// write to free budget. If its ack has not arrived, the entry retires
// instead of blocking: the model has settled it, and the round trip
// overlaps the walk. Only a full retired allowance — one more budget —
// blocks on the wire. Returns false when nothing can be waited for (only
// parked or retired entries remain, or nothing is pending).
func (r *Runtime) waitOldestWB() bool {
	for _, p := range r.wbOrder {
		if r.liveWB(p) && !p.parked && !p.retired {
			r.stats.WriteBackStalls++
			r.link.WaitUntil(p.doneAt)
			if sz := uint64(p.size); !p.ready() && r.wbRetired+sz <= r.wbBudget {
				r.wbBytes -= sz
				r.wbRetired += sz
				p.retired = true
			} else {
				r.settleWB(p)
			}
			return true
		}
	}
	return false
}

// tryAsyncWriteBack stages the dirty payload of (d, idx) for
// asynchronous write-back and reports whether it did; false sends the
// eviction down the synchronous path (no async store, breaker not
// closed, budget unfree-able, or the object's previous write parked).
func (r *Runtime) tryAsyncWriteBack(d *DS, idx int) bool {
	if r.awstore == nil || r.breakerIsOpen() {
		return false
	}
	key := wbKey{d.ID, idx}
	if p, ok := r.wbPending[key]; ok {
		// Per-object ordering: the transport may reorder independent
		// batches, so wait out this object's previous write before
		// putting a newer one on the wire. A retired entry's stall was
		// charged when it retired: only its ack is waited for.
		if p.parked {
			return false
		}
		if !p.retired {
			r.stats.WriteBackStalls++
			r.link.WaitUntil(p.doneAt)
		}
		if !r.settleWB(p) {
			return false
		}
	}
	sz := d.Meta.ObjSize
	r.harvestWriteBacks()
	for r.wbBytes+uint64(sz) > r.wbBudget {
		if !r.waitOldestWB() {
			return false
		}
	}
	obj := &d.objs[idx]
	buf := r.getWBBuf(sz)
	copy(buf, r.arena.Bytes(obj.frame, sz))
	exts := r.rangeExtents(d, obj)
	p := &pendingWB{key: key, d: d, idx: idx, buf: buf, size: sz, exts: exts,
		completion: newCompletion()}
	// The charge below is the dirty rectangle's whatever ships: an unread
	// object's frame holds only its logged stores, so they go out as a
	// splice.
	if obj.log != nil {
		p.exts, p.partial = r.spliceExtents(obj.log), true
	}
	if exts != nil {
		// Only the extent bytes ride the wire; the virtual link charge
		// shrinks with them.
		shipped := 0
		for _, e := range exts {
			shipped += int(e.Len)
		}
		p.doneAt = r.link.WriteBackAsync(shipped)
		r.stats.RangeWriteBacks++
		r.stats.RangeBytesSaved += uint64(sz - shipped)
	} else {
		p.doneAt = r.link.WriteBackAsync(sz)
	}
	r.wbPending[key] = p
	r.wbOrder = append(r.wbOrder, p)
	r.wbBytes += uint64(sz)
	r.stats.StagedWriteBacks++
	if p.partial {
		r.putExtBuf(exts)
	}
	if p.exts != nil {
		r.rwstore.IssueWriteRanges(d.ID, idx, buf, p.exts, p.fn)
	} else {
		r.awstore.IssueWrite(d.ID, idx, buf, p.fn)
	}
	return true
}

// derefFromStaging serves the re-localization of an object whose
// freshest bytes sit in a staged write-back buffer (read-your-writes
// coherence). No network, no breaker gate — the bytes are local.
// Returns (false, nil) when the object has no staged write.
func (r *Runtime) derefFromStaging(d *DS, idx int) (bool, error) {
	key := wbKey{d.ID, idx}
	p, ok := r.wbPending[key]
	if !ok {
		return false, nil
	}
	// Snapshot the payload before allocFrame: evicting to make room can
	// settle (and recycle) this very entry through write-back
	// backpressure or a recovery drain. A partial entry re-localizes the
	// object unread, its log the staged extents, taken here for the same
	// reason.
	sz := d.Meta.ObjSize
	tmp := r.getWBBuf(sz)
	copy(tmp, p.buf)
	var log *storeLog
	if p.partial {
		log = r.getLog()
		log.exts = append(log.exts, p.exts...)
	}
	frame, err := r.allocFrame(d, idx)
	if err != nil {
		r.putWBBuf(tmp)
		return false, err
	}
	copy(r.arena.Bytes(frame, sz), tmp)
	r.putWBBuf(tmp)
	obj := &d.objs[idx]
	obj.frame = frame
	obj.state = objLocal
	obj.log = log
	if q, live := r.wbPending[key]; live && q == p && p.parked {
		// The parked staging copy was the only durable copy; the frame
		// takes over that role, so the object re-localizes dirty and the
		// staging budget is released. The remote base predates the parked
		// write, so the dirty region is unknown: full-object write-back
		// (an unread object's still ships its log).
		r.releaseWB(p)
		obj.dirty = true
		obj.rect = dirtyRect{full: true}
	}
	r.stats.WriteBackStagingHits++
	r.emit(EvMaterialize, d.ID, idx, false)
	return true, nil
}

// drainParked is drainDirty's second half: it reissues the parked
// staged writes — under a scope only those whose owning slice recovered
// after sinceEpoch; the rest stay parked without a fail-fast attempt.
// Returns true when some entries remain parked, and when a sweep above
// it owns the list (so degradedDirty stays armed).
func (r *Runtime) drainParked(scope DrainScoper, sinceEpoch uint64) (remain bool) {
	swept := r.sweepWB(func(p *pendingWB) bool {
		if !p.parked {
			return true
		}
		if (scope != nil && !scope.ShouldDrain(p.d.ID, p.idx, sinceEpoch)) || r.rewriteWB(p) != nil {
			remain = true
			return true
		}
		r.stats.DrainedWriteBacks++
		return false
	})
	return remain || !swept
}

// DrainWriteBacks settles every staged write-back, blocking for
// in-flight ones and reissuing parked ones. It is the write-barrier a
// caller needs before treating the far tier as authoritative (benchmark
// epochs, checksum verification, Close). Entries whose reissue is still
// refused stay parked; the first such error is returned.
func (r *Runtime) DrainWriteBacks() error {
	var firstErr error
	r.sweepWB(func(p *pendingWB) bool {
		if !p.parked {
			r.link.WaitUntil(p.doneAt)
			if r.settleWB(p) {
				return false
			}
		}
		// Parked (possibly just now): one more synchronous attempt — a
		// recovered shard accepts it and the entry retires.
		r.stats.WriteBackReissues++
		err := r.rewriteWB(p)
		if firstErr == nil {
			firstErr = err
		}
		return err != nil
	})
	return firstErr
}

// StagedWriteBackBytes reports the staged payload bytes the budget
// counts; retired entries' bytes (at most one more budget) are not
// among them.
func (r *Runtime) StagedWriteBackBytes() uint64 { return r.wbBytes }

// StagedWriteBackEntries reports the number of staged write-backs
// (in flight or parked).
func (r *Runtime) StagedWriteBackEntries() int { return len(r.wbPending) }
