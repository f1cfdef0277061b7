package farmem

// Guard-site hit memos. A guard site mostly touches the object it touched
// last. When that repeat is quiet (QuietPrefetcher), GuardSite fills the
// site's HitMemo and serves the next guards in its range from it with no
// deref, while the remote generation stands (the object is still local,
// logless, at its frame) and the structure's quiet mark still names the
// object. What deref would have done waits for SettleHits: the guard
// slow path, DSAlloc, AllocLocal, AllLocal and Prefetch run it first,
// and an interpreter runs it before it reads the clock and when it
// returns.

// HitMemo is one guard site's memo. The zero value covers nothing.
type HitMemo struct {
	lo, span, frame uint64 // tagged range [lo, lo+span) at arena frame
	gen, charge     uint64 // remoteGen it was taken under; cycles per hit
	d               *DS
	idx             int
	gLo, gHi        int    // a write site's span
	hits, seq       uint64 // unsettled hits; memoSeq at the last one
	// Gather, if set, is the site's compiler-named chain, walked on the
	// site's miss (gather.go).
	Gather *Gather
}

// GuardSite is GuardSpan (GuardStore with once) at the guard site m. An
// untagged addr (the custody check falls through) or one m covers while
// it stands is served without a deref, its effects left for SettleHits;
// a write hit dirties its span at once (a rectangle union: the order of
// marks does not matter). Any other guard settles first, and its deref
// fills m when a repeat would be a pure hit.
func (r *Runtime) GuardSite(m *HitMemo, addr uint64, write, once bool, gLo, gHi int) (uint64, error) {
	if m != nil {
		off := addr - m.lo
		switch {
		case !IsTagged(addr) && write:
			r.fallWrites++
			return addr, nil
		case !IsTagged(addr):
			r.fallReads++
			return addr, nil
		case off < m.span && m.gen == r.remoteGen && m.d.quiet == m.idx:
			if m.hits == 0 {
				r.memoPend = append(r.memoPend, m)
			}
			m.hits++
			r.memoSeq++
			m.seq = r.memoSeq
			if write {
				r.markDirty(m.d, &m.d.objs[m.idx], int(off), m.gLo, m.gHi)
			}
			return m.frame + off, nil
		}
		r.SettleHits()
	}
	r.stats.GuardChecks++
	r.clock.Advance(r.checkCharge(write))
	if !IsTagged(addr) {
		r.stats.FastPathHits++
		return addr, nil
	}
	return r.deref(m, addr, write, once, gLo, gHi)
}

// SettleHits applies the unsettled fall-throughs and memo hits as a
// guard would have: counters, clock charges, the access sequence
// (lastUse at each object's last hit), the reference bit and the repeat
// tally.
func (r *Runtime) SettleHits() {
	if r.memoSeq|r.fallReads|r.fallWrites == 0 {
		return
	}
	r.clock.Advance(r.fallReads*r.checkCharge(false) + r.fallWrites*r.checkCharge(true))
	r.stats.FastPathHits += r.fallReads + r.fallWrites
	for _, m := range r.memoPend {
		obj := &m.d.objs[m.idx]
		obj.lastUse = max(obj.lastUse, r.accessSeq+m.seq)
		obj.ref = true
		m.d.stats.Hits += m.hits
		m.d.repeats += m.hits
		r.clock.Advance(m.hits * m.charge)
		m.hits = 0
	}
	r.stats.GuardChecks += r.fallReads + r.fallWrites + r.memoSeq
	r.stats.DerefCalls += r.memoSeq
	r.accessSeq += r.memoSeq
	r.memoHits += r.memoSeq
	r.memoSeq, r.fallReads, r.fallWrites = 0, 0, 0
	r.memoPend = r.memoPend[:0]
}

// MemoHits returns how many guards a memo served (settled).
func (r *Runtime) MemoHits() uint64 { return r.memoHits }

// TakeRepeats returns and resets the count of d's quiet repeats whose
// OnAccess the runtime skipped: an adaptive prefetcher adds it to its
// observations before it next decides.
func (d *DS) TakeRepeats() uint64 {
	n := d.repeats
	d.repeats = 0
	return n
}
