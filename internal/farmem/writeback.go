package farmem

// Asynchronous batched write-back. Over an AsyncWriteStore a dirty
// eviction copies the payload into a write-back entry of the in-flight
// table (table.go), frees the frame at memory speed and issues the write;
// the transport coalesces staged writes into WRITEBATCH doorbells.
// A write is never silently retried: an uncertain or failed one is
// reissued *here*, synchronously, where the full-object payload makes
// the replay idempotent (storeWrite). If even the reissue is refused
// (degraded shard), the entry parks: its buffer then holds the only
// durable copy until a recovery drain.
//
// Config.WriteBackBudget bounds the budgeted staged bytes: past it the
// next dirty eviction stalls in virtual time on the oldest budgeted
// write, after harvesting the completions already in. An entry whose ack
// has not arrived by then retires rather than blocking on the wire
// (waitOldestWB), so real staging is at most twice the budget.

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

// rewriteWB writes a staged entry back synchronously from its snapshot
// and, when the store takes it, charges the round trip and drops the
// entry. A splice is never replayed as extents: a partial entry first
// reads the base and lays its extents over it (an entry whose base read
// is refused stays partial).
func (r *Runtime) rewriteWB(p *entry) error {
	sz := p.d.Meta.ObjSize
	if p.partial {
		buf := r.getBuf(sz)
		if err := r.storeRead(p.d, p.idx, buf); err != nil {
			r.putBuf(buf)
			return err
		}
		for _, e := range p.exts {
			copy(buf[e.Off:e.Off+e.Len], p.buf[e.Off:])
		}
		r.putBuf(p.buf)
		p.buf, p.partial = buf, false
	}
	err := r.storeWrite(p.d, p.idx, p.buf)
	if err == nil {
		r.link.WriteBack(sz)
		r.drop(p)
	}
	return err
}

// settleWB consumes one staged write's completion (blocking if needed).
// On failure it notes the fault and reissues the write synchronously
// from the snapshot. Returns true when the entry was dropped, false when
// it parked on a degraded shard.
func (r *Runtime) settleWB(p *entry) bool {
	if err := p.wait(); err == nil {
		r.drop(p)
		return true
	}
	r.noteFault()
	r.stats.WriteBackReissues++
	if r.rewriteWB(p) == nil {
		return true
	}
	p.parked = true
	r.degradedDirty = true
	return false
}

// harvestWriteBacks settles every staged write whose completion has
// already arrived, without blocking: run before the budget check, so a
// completed write never causes a stall.
func (r *Runtime) harvestWriteBacks() {
	r.sweep(func(p *entry) {
		if p.kind == entryWB && !p.parked && r.clock.Now() >= p.at && p.ready() {
			r.settleWB(p)
		}
	})
}

// waitOldestWB stalls in virtual time on the oldest budgeted staged
// write. If its ack has not arrived, the entry retires instead of
// blocking: the model has settled it. Only a full retired allowance —
// one more budget — blocks on the wire. Returns false when only parked
// or retired entries remain.
func (r *Runtime) waitOldestWB() bool {
	for _, p := range r.order {
		if p != nil && p.kind == entryWB && !p.parked && !p.retired {
			r.stats.WriteBackStalls++
			r.link.WaitUntil(p.at)
			if !p.ready() && r.wbRetired+p.bytes <= r.wbBudget {
				r.wbBytes -= p.bytes
				r.wbRetired += p.bytes
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
	obj := &d.objs[idx]
	if p := obj.ent; p != nil {
		// Per-object ordering: a local object's entry is its previous
		// write, waited out before a newer one goes on the wire. A
		// retired entry's stall was charged when it retired: only its
		// ack is waited for.
		if p.parked {
			return false
		}
		if !p.retired {
			r.stats.WriteBackStalls++
			r.link.WaitUntil(p.at)
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
	p := r.newEntry(entryWB, d, idx)
	p.buf = r.getBuf(sz)
	copy(p.buf, r.arena.Bytes(obj.frame, sz))
	// Only the dirty rectangle's extent bytes ride the wire, and the
	// virtual link charge shrinks with them.
	shipped := sz
	if p.exts = r.rangeExtents(d, obj); p.exts != nil {
		shipped = 0
		for _, e := range p.exts {
			shipped += int(e.Len)
		}
		r.stats.RangeWriteBacks++
		r.stats.RangeBytesSaved += uint64(sz - shipped)
	}
	p.at = r.link.WriteBackAsync(shipped)
	// The charge is the rectangle's whatever ships: an unread object's
	// frame holds only its logged stores, so they go out as a splice.
	if obj.log != nil {
		r.putExtBuf(p.exts)
		p.exts, p.partial = r.spliceExtents(obj.log), true
	}
	r.track(p)
	r.stats.StagedWriteBacks++
	if p.exts != nil {
		r.rwstore.IssueWriteRanges(d.ID, idx, p.buf, p.exts, p.fn)
	} else {
		r.awstore.IssueWrite(d.ID, idx, p.buf, p.fn)
	}
	return true
}

// drainParked is the recovery drain's second half: it reissues the parked
// writes — under a scope only those whose slice recovered after
// sinceEpoch. Returns true when some remain parked, and when a sweep
// above it owns the list (so degradedDirty stays armed).
func (r *Runtime) drainParked(scope DrainScoper, sinceEpoch uint64) (remain bool) {
	swept := r.sweep(func(p *entry) {
		if p.kind != entryWB || !p.parked {
			return
		}
		if (scope != nil && !scope.ShouldDrain(p.d.ID, p.idx, sinceEpoch)) || r.rewriteWB(p) != nil {
			remain = true
			return
		}
		r.stats.DrainedWriteBacks++
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
	r.sweep(func(p *entry) {
		if p.kind != entryWB {
			return
		}
		if !p.parked {
			r.link.WaitUntil(p.at)
			if r.settleWB(p) {
				return
			}
		}
		// Parked (possibly just now): one more synchronous attempt — a
		// recovered shard accepts it and the entry goes.
		r.stats.WriteBackReissues++
		if err := r.rewriteWB(p); firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

// StagedWriteBackBytes reports the staged payload bytes the budget
// counts, retired entries' excluded.
func (r *Runtime) StagedWriteBackBytes() uint64 { return r.wbBytes }

// StagedWriteBackEntries reports the number of staged write-backs
// (in flight or parked).
func (r *Runtime) StagedWriteBackEntries() int { return r.kinds[entryWB] }
