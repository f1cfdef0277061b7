package farmem

import (
	"errors"
	"fmt"
)

// DSAlloc services a dsalloc(size, handle) call (Listing 2): it allocates
// n bytes belonging to data structure id and returns the address the
// program will use. Pinned structures receive plain local addresses (so
// the custody check falls through); remotable structures receive tagged
// addresses in their virtual extent.
//
// The remoting decision follows §4.2: the static placement hint is
// consulted first, but the runtime overrides it when the structure does
// not fit in pinned memory (the hint-override path), and the Linear
// placement decides purely at allocation time.
func (r *Runtime) DSAlloc(id int, n int64) (uint64, error) {
	if n <= 0 {
		n = 8
	}
	n = int64(align8(int(n)))
	d := r.DSByID(id)
	if d == nil {
		// Allocation outside any identified structure: plain local.
		return r.AllocLocal(n)
	}

	pinned := false
	switch d.placement {
	case PlacePinned:
		pinned = !d.spilled
	case PlaceRemotable:
		pinned = false
	case PlaceLinear:
		pinned = r.pinnedUsed+uint64(n) <= r.pinnedBudget
	}
	if d.localPromise {
		// A cards_all_local check already steered execution onto the
		// uninstrumented path for this structure, so later growth MUST
		// stay local — the fast path has no guards (paper §4.2: "In
		// cases where dynamic data structures grow during execution,
		// the runtime tracks allocations to ensure they remain local").
		// Overcommit is recorded rather than remoting unsafely.
		pinned = true
		if r.pinnedUsed+uint64(n) > r.pinnedBudget {
			r.stats.OvercommitBytes += uint64(n)
		}
	} else if pinned && r.pinnedUsed+uint64(n) > r.pinnedBudget {
		// Static hint says pinned but local memory is exhausted: the
		// runtime overrides and remotes the structure from here on.
		d.spilled = true
		r.stats.SpilledDS++
		r.emit(EvSpill, d.ID, 0, false)
		pinned = false
	}

	if pinned {
		r.clock.Advance(r.model.AllocLocal)
		off := r.arena.Alloc(int(n))
		r.pinnedUsed += uint64(n)
		d.stats.PinnedBytes += uint64(n)
		return off, nil
	}

	r.clock.Advance(r.model.AllocRemote)
	d.everRemote = true
	base := d.size
	// A single allocation must never straddle an object boundary:
	// redundant guard elimination assumes that two field offsets within
	// one allocation share one object. Bump the base to the next object
	// when the allocation would cross (for allocations larger than one
	// object, align to the object size).
	objSz := uint64(d.Meta.ObjSize)
	if base%objSz != 0 && base/objSz != (base+uint64(n)-1)/objSz {
		base = (base + objSz - 1) &^ (objSz - 1)
	}
	d.size = base + uint64(n)
	if d.size > OffMask {
		return 0, fmt.Errorf("farmem: DS %d exceeds 48-bit extent", id)
	}
	want := int((d.size + uint64(d.Meta.ObjSize) - 1) >> d.objShift)
	for len(d.objs) < want {
		d.objs = append(d.objs, FarObj{state: objUninit})
	}
	d.stats.RemoteBytes += uint64(n)
	return MakeAddr(id, base), nil
}

// AllocLocal allocates plain (non-remotable, untagged) local memory, the
// path taken by allocations outside any identified data structure.
func (r *Runtime) AllocLocal(n int64) (uint64, error) {
	if n <= 0 {
		n = 8
	}
	r.clock.Advance(r.model.AllocLocal)
	off := r.arena.Alloc(int(n))
	r.pinnedUsed += uint64(n)
	return off, nil
}

// Guard performs the inline custody check of Figure 3 and, for tagged
// addresses, the cards_deref slow path. It returns the localized
// (directly dereferenceable) address.
func (r *Runtime) Guard(addr uint64, write bool) (uint64, error) {
	return r.GuardSpan(addr, write, 0, 0)
}

// GuardSpan is Guard carrying the compiler-derived written byte span
// [gLo, gHi) relative to addr (ir.Instr.GLo/GHi): the bytes this guard's
// store — and every store elided onto it — may modify. gHi <= gLo means
// the span is unknown and a write dirties conservatively (the whole
// object, or the structure's static write footprint).
func (r *Runtime) GuardSpan(addr uint64, write bool, gLo, gHi int) (uint64, error) {
	return r.guard(addr, write, false, gLo, gHi)
}

// GuardStore is the write guard of a store-once access: its result feeds
// one word store at addr and nothing else, so a network miss may hand
// the frame out before the object's bytes arrive (see deref).
func (r *Runtime) GuardStore(addr uint64, gLo, gHi int) (uint64, error) {
	return r.guard(addr, true, true, gLo, gHi)
}

func (r *Runtime) guard(addr uint64, write, once bool, gLo, gHi int) (uint64, error) {
	r.stats.GuardChecks++
	if r.trackFM {
		// TrackFM's guards run the full lookup on every access —
		// costlier locally (Table 1: 462/579 vs custody-check
		// fall-through), modelled as a flat local charge here.
		if write {
			r.clock.Advance(r.model.TrackFMGuardLocalWrite)
		} else {
			r.clock.Advance(r.model.TrackFMGuardLocalRead)
		}
	} else {
		r.clock.Advance(r.model.CustodyCheck)
	}
	if !IsTagged(addr) {
		r.stats.FastPathHits++
		return addr, nil
	}
	return r.deref(addr, write, once, gLo, gHi)
}

// Deref is the cards_deref slow path (Listing 4): map the tagged address
// to its data structure and object, localize the object if necessary,
// and return the physical (arena) address.
func (r *Runtime) Deref(addr uint64, write bool) (uint64, error) {
	return r.DerefSpan(addr, write, 0, 0)
}

// DerefSpan is Deref carrying a write span for the dirty rectangle; see
// GuardSpan.
func (r *Runtime) DerefSpan(addr uint64, write bool, gLo, gHi int) (uint64, error) {
	return r.deref(addr, write, false, gLo, gHi)
}

// deref is DerefSpan; once marks a GuardStore's deref. Such a miss over
// an AsyncStore with the breaker closed allocates, evicts and charges
// exactly as any other, but issues the read into a pendingFetch and
// hands the frame out at once, logging the store's bytes; until the
// object is settled (harvest) it is local to every decision, and the
// first thing that reads or releases its frame — any other guard of it,
// a full log, evictObject, ObjectWord — settles it first.
func (r *Runtime) deref(addr uint64, write, once bool, gLo, gHi int) (uint64, error) {
	r.stats.DerefCalls++
	id := DSOf(addr)
	d := r.DSByID(id)
	if d == nil {
		return 0, &ErrBadAddress{Addr: addr, Why: "unknown data structure"}
	}
	off := OffOf(addr)
	if off >= d.size {
		return 0, &ErrBadAddress{Addr: addr, Why: fmt.Sprintf("offset beyond DS extent %d", d.size)}
	}
	idx := int(off >> d.objShift)
	objOff := int(off & (uint64(d.Meta.ObjSize) - 1))
	obj := &d.objs[idx]
	r.accessSeq++
	obj.lastUse = r.accessSeq

	// Per-deref bookkeeping cost (DS lookup + object table walk).
	if !r.trackFM {
		if write {
			r.clock.Advance(r.model.DerefLocalWrite)
		} else {
			r.clock.Advance(r.model.DerefLocalRead)
		}
	}

	missed := false
	rootMine := false
	switch obj.state {
	case objLocal:
		if p := obj.pending; p != nil && !(once && p.logStore(objOff, d.Meta.ObjSize)) {
			if err := r.harvest(d, idx); err != nil {
				return 0, err
			}
		}
		d.stats.Hits++

	case objInFlight:
		// A prefetch raced ahead of us: wait out the remaining flight
		// time instead of paying a full round trip. On the async path this
		// also harvests the completion (blocking until the payload really
		// landed, then copying staging buffer -> arena frame).
		start := r.clock.Now()
		r.link.WaitUntil(obj.readyAt)
		d.inflight--
		r.inflightBytes -= uint64(d.Meta.ObjSize)
		if err := r.harvest(d, idx); err != nil {
			return 0, err
		}
		d.pfWaitHist.Observe(r.clock.Now() - start)
		obj.state = objLocal
		d.stats.PrefetchHits++
		d.stats.Hits++
		r.emitSpan(EvPrefetchHit, d.ID, idx, false, start)

	case objUninit:
		// First touch: materialize a zeroed frame locally; no network.
		frame, err := r.allocFrame(d, idx)
		if err != nil {
			return 0, err
		}
		obj.frame = frame
		obj.state = objLocal
		d.stats.ColdFaults++
		r.emit(EvMaterialize, d.ID, idx, false)

	case objRemote:
		// Read-your-writes coherence: while an asynchronous write-back of
		// this object is staged (in flight or parked), its staging buffer
		// holds the freshest bytes — a remote READ could race the write
		// and observe the pre-write value. Serve the re-localization from
		// staging, with no network and regardless of breaker state.
		if hit, err := r.derefFromStaging(d, idx); err != nil {
			return 0, err
		} else if hit {
			d.stats.Hits++
			break
		}
		// A chase-delivered path object (or an in-flight chase that
		// started here) serves the re-localization without a round trip
		// — also before the breaker gate: staged bytes are local.
		if hit, err := r.derefFromChase(d, idx); err != nil {
			return 0, err
		} else if hit {
			d.stats.Hits++
			break
		}
		// Fail fast while degraded — and BEFORE allocFrame, so refused
		// derefs cannot erode the clean resident set through evictions.
		if !r.breaker.Gate() {
			r.stats.DegradedOps++
			return 0, errDegradedDeref(d.ID, idx)
		}
		missed = true
		// The guard miss is the root cause of everything below it: the
		// fetch, any evictions allocFrame triggers, their staged
		// write-backs, and the prefetches OnAccess issues at the end of
		// this deref all join this trace.
		rootMine = r.beginRoot()
		d.stats.Misses++
		r.stats.RemoteFetches++
		start := r.clock.Now()
		frame, err := r.allocFrame(d, idx)
		if err != nil {
			r.endRoot(rootMine)
			return 0, err
		}
		if once && r.astore != nil && !r.breakerIsOpen() {
			p := r.getFetch(d.Meta.ObjSize)
			r.astore.IssueRead(d.ID, idx, p.buf, p.fn)
			p.logStore(objOff, d.Meta.ObjSize)
			obj.pending = p
		} else if err := r.storeRead(d, idx, r.arena.Bytes(frame, d.Meta.ObjSize)); err != nil {
			// Give the frame back and bump the epoch so the ring entry
			// allocFrame just registered goes stale — otherwise every
			// failed fetch would leak remotable budget.
			r.arena.Free(frame, d.Meta.ObjSize)
			r.remotableUsed -= uint64(d.Meta.ObjSize)
			obj.epoch++
			r.endRoot(rootMine)
			return 0, fmt.Errorf("farmem: remote read ds%d[%d]: %w", d.ID, idx, err)
		}
		r.link.FetchSync(d.Meta.ObjSize)
		d.fetchHist.Observe(r.clock.Now() - start)
		obj.frame = frame
		obj.state = objLocal
		r.emitSpan(EvFetch, d.ID, idx, false, start)
	}

	obj.ref = true
	if write {
		r.markDirty(d, obj, objOff, gLo, gHi)
	}
	d.prefetcher.OnAccess(r, d, idx, missed)
	r.endRoot(rootMine)
	return obj.frame + uint64(objOff), nil
}

// allocFrame reserves a local frame for one object of d, evicting cold
// objects if the remotable budget is exhausted, and registers the object
// in the CLOCK ring.
func (r *Runtime) allocFrame(d *DS, idx int) (uint64, error) {
	sz := uint64(d.Meta.ObjSize)
	for r.remotableUsed+sz > r.remotableBudget {
		if r.breakerIsOpen() && r.growBudget(sz) {
			break // degraded mode: grow instead of evicting
		}
		if err := r.evictOne(); err != nil {
			if errors.Is(err, ErrDegraded) && r.growBudget(sz) {
				// Every remaining victim is dirty on a degraded shard:
				// pin them (their frames hold the only copy) and grow
				// the budget instead, exactly as under a global outage.
				break
			}
			return 0, err
		}
	}
	frame := r.arena.Alloc(d.Meta.ObjSize)
	r.remotableUsed += sz
	r.ring = append(r.ring, clockEntry{ds: d, idx: idx, epoch: d.objs[idx].epoch})
	return frame, nil
}

// recentWindow is the number of most-recently derefed objects immune
// from eviction. It plays the role of AIFM's dereference scopes: a guard
// may hand out a localized address that later instructions in the same
// basic block reuse (redundant guard elimination), so the frames behind
// the last few guards must stay resident.
const recentWindow = 8

// evictOne runs CLOCK pass steps until a victim is evicted. When the
// only evictable victims are dirty objects whose owning shard is
// degraded (their write-back has nowhere to go), it returns an error
// wrapping ErrDegraded so the allocator grows the budget instead.
func (r *Runtime) evictOne() error {
	scanned := 0
	degraded := r.breakerIsOpen()
	sawDegraded := false
	// When every resident object is deref-scope protected (tiny budgets),
	// fall back to evicting the least recently derefed protected object.
	fallbackPos := -1
	var fallbackUse uint64
	for len(r.ring) > 0 && scanned <= 3*len(r.ring) {
		if r.hand >= len(r.ring) {
			r.hand = 0
		}
		e := r.ring[r.hand]
		obj := &e.ds.objs[e.idx]
		switch {
		case obj.epoch != e.epoch || obj.state == objRemote || obj.state == objUninit:
			// Stale entry: the object was evicted (and possibly
			// re-localized under a newer epoch/entry).
			if fallbackPos == r.hand {
				fallbackPos = -1
			}
			r.removeRingEntry(r.hand)
		case obj.state == objInFlight:
			if obj.readyAt <= r.clock.Now() && (obj.pending == nil || obj.pending.ready()) {
				// The payload has landed but no access consumed it: an
				// unused prefetch. Settle it to Local (evictable) so
				// speculative frames cannot wedge the cache. On the async
				// path, only settle once the completion has actually
				// arrived (ready is a non-blocking poll).
				e.ds.inflight--
				r.inflightBytes -= uint64(e.ds.Meta.ObjSize)
				if err := r.harvest(e.ds, e.idx); err != nil {
					// harvest reverted the object to remote and freed its
					// frame; the ring entry is now stale and will be
					// collected on a later pass.
					continue
				}
				obj.state = objLocal
				obj.ref = false
				continue
			}
			// Payload still on the wire: never evict in-flight frames.
			r.hand++
			scanned++
		case obj.ref:
			// Second chance.
			obj.ref = false
			r.hand++
			scanned++
		case r.accessSeq-obj.lastUse < recentWindow:
			// Deref-scope protection (AIFM DerefScope analogue).
			if fallbackPos == -1 || obj.lastUse < fallbackUse {
				fallbackPos, fallbackUse = r.hand, obj.lastUse
			}
			r.hand++
			scanned++
		case degraded && obj.dirty:
			// Breaker open: this frame holds the only copy of a dirty
			// object (its write-back has nowhere to go). Pin it; the
			// allocator grows the budget instead.
			r.hand++
			scanned++
		default:
			err := r.evictObject(e.ds, e.idx, r.hand)
			if err != nil && errors.Is(err, ErrDegraded) {
				// The victim is dirty on a degraded shard: the write-back
				// was refused, so this frame holds the only copy. Pin it
				// and keep scanning for a victim on a healthy shard.
				r.degradedDirty = true
				sawDegraded = true
				r.hand++
				scanned++
				continue
			}
			return err
		}
	}
	if fallbackPos >= 0 && fallbackPos < len(r.ring) {
		e := r.ring[fallbackPos]
		obj := &e.ds.objs[e.idx]
		if obj.epoch == e.epoch && obj.state == objLocal && !(degraded && obj.dirty) {
			err := r.evictObject(e.ds, e.idx, fallbackPos)
			if err == nil || !errors.Is(err, ErrDegraded) {
				return err
			}
			r.degradedDirty = true
			sawDegraded = true
		}
	}
	if sawDegraded {
		return fmt.Errorf("farmem: remotable memory exhausted (%d bytes), remaining victims dirty on degraded shards: %w", r.remotableBudget, ErrDegraded)
	}
	return fmt.Errorf("farmem: remotable memory exhausted (%d bytes) and nothing evictable", r.remotableBudget)
}

// evictObject writes back (if dirty) and frees one resident object.
// With an AsyncWriteStore the dirty payload is staged and written back
// off the critical path (tryAsyncWriteBack); the synchronous store
// round trip remains the fallback.
func (r *Runtime) evictObject(d *DS, idx, ringPos int) error {
	if err := r.harvest(d, idx); err != nil {
		return err
	}
	obj := &d.objs[idx]
	// Usually joins the root of the miss/prefetch whose allocFrame forced
	// this eviction; materialize-driven evictions open their own.
	rootMine := r.beginRoot()
	start := r.clock.Now()
	wasDirty := obj.dirty
	if obj.dirty {
		if !r.tryAsyncWriteBack(d, idx) {
			if err := r.storeWrite(d, idx, r.arena.Bytes(obj.frame, d.Meta.ObjSize)); err != nil {
				r.endRoot(rootMine)
				return fmt.Errorf("farmem: write-back ds%d[%d]: %w", d.ID, idx, err)
			}
			r.link.WriteBack(d.Meta.ObjSize)
		}
		d.stats.WriteBacks++
	} else {
		r.clock.Advance(r.model.EvictObject)
	}
	d.evictHist.Observe(r.clock.Now() - start)
	r.emitSpan(EvEvict, d.ID, idx, wasDirty, start)
	// The evicted frame's bytes supersede any chase-staged snapshot of
	// this object; and a write-back invalidates every in-flight chase of
	// the structure (the server may walk a pre-write image).
	r.invalidateChase(d, idx)
	if wasDirty {
		d.chaseGen++
	}
	r.release(d, obj)
	d.stats.Evictions++
	r.stats.Evictions++
	r.removeRingEntry(ringPos)
	r.endRoot(rootMine)
	return nil
}

// release gives a resident (or in-flight) object's frame back and marks
// it remote; bumping the epoch makes its CLOCK ring entry stale. These
// are the only transitions INTO objRemote, which is what RemoteGen
// counts.
func (r *Runtime) release(d *DS, obj *FarObj) {
	r.arena.Free(obj.frame, d.Meta.ObjSize)
	r.remotableUsed -= uint64(d.Meta.ObjSize)
	obj.state = objRemote
	obj.dirty = false
	obj.rect = dirtyRect{}
	obj.ref = false
	obj.epoch++
	r.remoteGen++
}

// RemoteGen is a generation counter that advances whenever any object
// becomes remote (eviction, failed prefetch). PrefetchObj acts only on
// remote objects, so a prefetcher whose last window reported no remote
// object may skip re-walking the same window while the generation
// stands still: nothing it would hint at can have become fetchable.
func (r *Runtime) RemoteGen() uint64 { return r.remoteGen }

func (r *Runtime) removeRingEntry(pos int) {
	last := len(r.ring) - 1
	r.ring[pos] = r.ring[last]
	r.ring = r.ring[:last]
	switch {
	case r.hand == last && pos < last:
		// Swap-delete moved the tail entry — the very one the hand was
		// pointing at — to pos. Follow it: otherwise that entry silently
		// loses its turn and is not scanned again until the next full
		// CLOCK lap, perturbing eviction order.
		r.hand = pos
	case r.hand >= last:
		r.hand = 0
	}
}

// PrefetchObj issues an asynchronous localization of object idx of d, if
// it is remote and capacity allows. Called by prefetchers. It reports
// whether the object was remote, i.e. whether the hint had anything to
// act on — issued or not (see RemoteGen).
func (r *Runtime) PrefetchObj(d *DS, idx int) (remote bool) {
	if idx < 0 || idx >= len(d.objs) {
		return false
	}
	// Every check down to allocFrame is free of side effects, so their
	// order is free too. The object's state goes first: on a scan whose
	// lookahead window is already resident or in flight it is the one
	// that answers, and it costs a byte load where the breaker and the
	// budget limits cost a dozen.
	obj := &d.objs[idx]
	if obj.state != objRemote {
		return false
	}
	// No speculation while the remote tier is degraded (or on trial).
	if r.breakerIsOpen() {
		return true
	}
	// Never let in-flight prefetches occupy more than half the remotable
	// budget (across ALL structures — several prefetchers share the one
	// cache): frames in flight are unevictable, and prefetchers running
	// far ahead of a small cache would otherwise wedge the allocator.
	lim := d.maxInflight
	if halfBudget := int(r.remotableBudget / uint64(d.Meta.ObjSize) / 2); halfBudget < lim {
		lim = halfBudget
	}
	if d.inflight >= lim {
		return true
	}
	if r.inflightBytes+uint64(d.Meta.ObjSize) > r.remotableBudget/2 {
		return true
	}
	// An object with a staged write-back must be served from its staging
	// buffer (read-your-writes), never speculatively re-fetched: the
	// remote copy may still be stale.
	if _, ok := r.wbPending[wbKey{d.ID, idx}]; ok {
		return true
	}
	// A chase already delivered this object's bytes; the deref path
	// consumes them without a round trip.
	if _, ok := r.chaseStaged[wbKey{d.ID, idx}]; ok {
		return true
	}
	rootMine := r.beginRoot()
	frame, err := r.allocFrame(d, idx)
	if err != nil {
		r.endRoot(rootMine)
		return true // no capacity: drop the hint
	}
	if r.astore != nil {
		// Truly asynchronous issue: the read starts filling a private
		// staging buffer and this goroutine moves on immediately, so a
		// prefetcher can put its whole lookahead window on the wire in
		// one doorbell. The payload is copied into the arena frame at
		// harvest time (Deref or CLOCK settle) — the frame itself cannot
		// be the destination because the arena slab may move (grow) while
		// the read is in flight.
		p := r.getFetch(d.Meta.ObjSize)
		r.astore.IssueRead(d.ID, idx, p.buf, p.fn)
		obj.pending = p
	} else if err := r.storeRead(d, idx, r.arena.Bytes(frame, d.Meta.ObjSize)); err != nil {
		r.arena.Free(frame, d.Meta.ObjSize)
		r.remotableUsed -= uint64(d.Meta.ObjSize)
		obj.epoch++
		r.endRoot(rootMine)
		return true
	}
	obj.frame = frame
	obj.readyAt = r.link.FetchAsync(d.Meta.ObjSize)
	obj.state = objInFlight
	obj.ref = false
	d.inflight++
	r.inflightBytes += uint64(d.Meta.ObjSize)
	d.stats.PrefetchIssued++
	r.emit(EvPrefetch, d.ID, idx, false)
	r.endRoot(rootMine)
	return true
}

// getFetch takes a pendingFetch for an object of the given size from the
// free list, or makes one. Staging buffer and completion (channel and
// the callback handed to the store) are both reused: a prefetch issue
// allocates nothing once the lookahead window has been filled once.
func (r *Runtime) getFetch(size int) *pendingFetch {
	if l := r.pfFree[size]; len(l) > 0 {
		p := l[len(l)-1]
		r.pfFree[size] = l[:len(l)-1]
		return p
	}
	return &pendingFetch{buf: make([]byte, size), stores: make([]storeSpan, 0, storeLogCap), completion: newCompletion()}
}

// putFetch recycles p. Only harvest calls it, and only after p.wait()
// returned: the store invokes fn exactly once, after its last
// access to buf, so a received completion — success or failure — is the
// proof that nobody else still holds the buffer.
func (r *Runtime) putFetch(p *pendingFetch) {
	p.err, p.settled, p.stores = nil, false, p.stores[:0]
	r.pfFree[len(p.buf)] = append(r.pfFree[len(p.buf)], p)
}

// harvest settles the pending async read of an in-flight or filling
// object: it copies the staged payload into the object's arena frame,
// keeping the bytes its logged stores wrote there. No-op on the sync
// path (pending == nil). On a failed async read it retries
// synchronously; if that also fails an in-flight object reverts to
// remote and frees its frame, while a filling one keeps both, and its
// log, for its next observer to retry; either way the error is
// returned.
func (r *Runtime) harvest(d *DS, idx int) error {
	obj := &d.objs[idx]
	p := obj.pending
	if p == nil {
		return nil
	}
	if perr := p.wait(); perr != nil {
		// The async read failed: record it against the breaker, then
		// reissue synchronously under the retry budget.
		r.noteFault(perr)
		if r.storeRead(d, idx, p.buf) != nil {
			if obj.state == objInFlight {
				obj.pending = nil
				r.putFetch(p)
				r.release(d, obj)
			}
			return fmt.Errorf("farmem: async fetch ds%d[%d]: %w", d.ID, idx, perr)
		}
	}
	frame := r.arena.Bytes(obj.frame, d.Meta.ObjSize)
	for _, s := range p.stores {
		copy(p.buf[s.off:s.off+s.n], frame[s.off:])
	}
	copy(frame, p.buf)
	obj.pending = nil
	r.putFetch(p)
	return nil
}

// AllLocal answers the cards_all_local check of Listing 3: true iff every
// listed data structure has never been remoted, enabling the
// uninstrumented fast path.
func (r *Runtime) AllLocal(ids []int) bool {
	r.stats.AllLocalCalls++
	r.clock.Advance(uint64(8 * (1 + len(ids))))
	for _, id := range ids {
		d := r.DSByID(id)
		if d == nil || d.everRemote {
			return false
		}
	}
	// Committing to the unguarded path: these structures must now stay
	// local for the rest of the run, even if they grow.
	for _, id := range ids {
		r.dss[id].localPromise = true
	}
	return true
}

// Prefetch services an explicit cards_prefetch hint on an address.
func (r *Runtime) Prefetch(addr uint64) {
	if !IsTagged(addr) {
		return
	}
	d := r.DSByID(DSOf(addr))
	if d == nil {
		return
	}
	off := OffOf(addr)
	if off >= d.size {
		return
	}
	r.clock.Advance(r.model.PrefetchIssue)
	r.PrefetchObj(d, int(off>>d.objShift))
}

// ReadWord performs a localized 64-bit read; the address must be a
// physical (already-guarded or pinned) address.
func (r *Runtime) ReadWord(paddr uint64) (uint64, error) {
	if IsTagged(paddr) {
		return 0, &ErrUnsafeAccess{Addr: paddr}
	}
	if !r.arena.InBounds(paddr, 8) {
		return 0, &ErrBadAddress{Addr: paddr, Why: "out of local bounds"}
	}
	return r.arena.Read8(paddr), nil
}

// WriteWord performs a localized 64-bit write.
func (r *Runtime) WriteWord(paddr uint64, v uint64) error {
	if IsTagged(paddr) {
		return &ErrUnsafeAccess{Addr: paddr}
	}
	if !r.arena.InBounds(paddr, 8) {
		return &ErrBadAddress{Addr: paddr, Why: "out of local bounds"}
	}
	r.arena.Write8(paddr, v)
	return nil
}

// ObjectWord reads a 64-bit word at byte offset within a *resident*
// object of d, without charging guard costs or touching reference bits.
// Prefetchers use it to inspect pointer fields of just-localized objects
// (the greedy recursive prefetcher of §4.2). Returns false when the
// object is not local or the offset is out of range.
func (r *Runtime) ObjectWord(d *DS, idx int, byteOff int) (uint64, bool) {
	if idx < 0 || idx >= len(d.objs) || byteOff < 0 || byteOff+8 > d.Meta.ObjSize {
		return 0, false
	}
	obj := &d.objs[idx]
	if obj.state != objLocal || r.harvest(d, idx) != nil {
		return 0, false
	}
	return r.arena.Read8(obj.frame + uint64(byteOff)), true
}

// NumObjects returns the current object-table length of d.
func (d *DS) NumObjects() int { return len(d.objs) }
