package farmem

import (
	"errors"
	"fmt"

	"cards/internal/rdma"
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
	r.SettleHits()
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
	r.SettleHits()
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
	return r.GuardSite(nil, addr, write, false, gLo, gHi)
}

// GuardStore is the write guard of a store-once access: its result feeds
// one word store at addr and nothing else, so a network miss may hand
// the frame out before the object's bytes arrive (see deref).
func (r *Runtime) GuardStore(addr uint64, gLo, gHi int) (uint64, error) {
	return r.GuardSite(nil, addr, true, true, gLo, gHi)
}

// checkCharge is a guard's custody check. TrackFM's guards run the full
// lookup on every access — costlier locally (Table 1: 462/579 vs
// custody-check fall-through), modelled as a flat local charge.
func (r *Runtime) checkCharge(write bool) uint64 {
	switch {
	case !r.trackFM:
		return r.model.CustodyCheck
	case write:
		return r.model.TrackFMGuardLocalWrite
	}
	return r.model.TrackFMGuardLocalRead
}

// lookupCharge is a deref's bookkeeping (DS lookup + object table
// walk), which TrackFM's flat guard charge covers.
func (r *Runtime) lookupCharge(write bool) uint64 {
	switch {
	case r.trackFM:
		return 0
	case write:
		return r.model.DerefLocalWrite
	}
	return r.model.DerefLocalRead
}

// Deref is the cards_deref slow path (Listing 4): map the tagged address
// to its data structure and object, localize the object if necessary,
// and return the physical (arena) address.
func (r *Runtime) Deref(addr uint64, write bool) (uint64, error) {
	return r.deref(nil, addr, write, false, 0, 0)
}

// deref is Deref with a guard's write span [gLo, gHi) (see GuardSpan);
// once marks a GuardStore's deref. Such a miss over a RangeWriteStore
// with the breaker closed charges as any other but reads nothing: the
// object is local and unread, its frame holding only what its store log
// names. Later store-once guards append to the log; the first observer
// lays it over the base (observe), and evicting it unread ships the log
// as a splice (tryAsyncWriteBack).
func (r *Runtime) deref(m *HitMemo, addr uint64, write, once bool, gLo, gHi int) (uint64, error) {
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
	// A quiet repeat skips OnAccess (memo.go); a failed deref drops it.
	repeat := d.quiet == idx && d.quietGen == r.remoteGen
	d.quiet = -1

	r.clock.Advance(r.lookupCharge(write))

	missed := false
	rootMine := false
	switch obj.state {
	case objLocal:
		d.stats.Hits++

	case objInFlight:
		// A prefetch raced ahead of us: wait out the remaining flight
		// time instead of paying a full round trip, and harvest the read.
		start := r.clock.Now()
		r.link.WaitUntil(obj.ent.at)
		if r.harvest(obj.ent, true) == nil {
			d.pfWaitHist.Observe(r.clock.Now() - start)
			obj.state = objLocal
			d.stats.PrefetchHits++
			d.stats.Hits++
			r.emitSpan(EvPrefetchHit, d.ID, idx, false, start)
			break
		}
		// Its read failed and was dropped: this deref is the miss it is,
		// read into the prefetch's own frame.
		missed, rootMine = true, r.beginRoot()
		if err := r.fetch(d, idx, once, start); err != nil {
			r.endRoot(rootMine)
			return 0, err
		}

	case objUninit:
		// First touch: materialize a zeroed frame locally; no network.
		if err := r.allocFrame(d, idx); err != nil {
			return 0, err
		}
		obj.state = objLocal
		d.stats.ColdFaults++
		r.emit(EvMaterialize, d.ID, idx, false)

	case objRemote:
		// Read-your-writes: an object in the in-flight table is served
		// from its staged bytes — a write-back's, which a remote read
		// could race, or a chase's — before the breaker gate.
		if hit, err := r.serveStaged(d, idx); err != nil {
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
		// The guard miss is the root cause of everything below it: the
		// fetch, any evictions allocFrame triggers, their staged
		// write-backs, and the prefetches OnAccess issues at the end of
		// this deref all join this trace.
		missed, rootMine = true, r.beginRoot()
		start := r.clock.Now()
		if m != nil && m.Gather != nil {
			r.gatherAhead(m.Gather) // before this miss's read: one doorbell
		}
		err := r.allocFrame(d, idx)
		if err == nil {
			err = r.fetch(d, idx, once, start)
		}
		if err != nil {
			r.endRoot(rootMine)
			return 0, err
		}
	}

	if l := obj.log; l != nil && !(once && l.add(objOff, min(8, d.Meta.ObjSize-objOff))) {
		if err := r.observe(d, idx); err != nil {
			r.endRoot(rootMine)
			return 0, err
		}
	}
	obj.ref = true
	if write {
		r.markDirty(d, obj, objOff, gLo, gHi)
	}
	if repeat {
		d.repeats++
	} else {
		r.pfRemote = false
		d.prefetcher.OnAccess(r, d, idx, missed)
	}
	if repeat || !r.pfRemote && d.quieter != nil && d.quieter.QuietOnRepeat() {
		d.quiet, d.quietGen = idx, r.remoteGen
	}
	r.endRoot(rootMine)
	if lo := addr - uint64(objOff); m != nil && d.quiet == idx && obj.log == nil {
		m.lo, m.span, m.frame, m.gen = lo, min(uint64(d.Meta.ObjSize), d.size-OffOf(lo)), obj.frame, r.remoteGen
		m.d, m.idx, m.charge, m.gLo, m.gHi = d, idx, r.checkCharge(write)+r.lookupCharge(write), gLo, gHi
	}
	return obj.frame + uint64(objOff), nil
}

// fetch is a miss's read into the frame its object holds — from the
// object's gather, as an unread object's empty store log, or from the
// store — counted and charged as one synchronous fetch. A failed read
// releases the frame (its ring entry goes stale) and is returned.
func (r *Runtime) fetch(d *DS, idx int, once bool, start uint64) error {
	obj := &d.objs[idx]
	d.stats.Misses++
	r.stats.RemoteFetches++
	if r.takeGather(d, idx, obj.frame) {
		// Served from the gathered bytes, charged as the read below.
	} else if once && r.rwstore != nil && !r.breakerIsOpen() {
		obj.log = r.getLog() // the store below is its first entry
	} else if err := r.storeRead(d, idx, r.arena.Bytes(obj.frame, d.Meta.ObjSize)); err != nil {
		r.release(d, obj)
		return fmt.Errorf("farmem: remote read ds%d[%d]: %w", d.ID, idx, err)
	}
	r.link.FetchSync(d.Meta.ObjSize)
	d.fetchHist.Observe(r.clock.Now() - start)
	obj.state = objLocal
	r.emitSpan(EvFetch, d.ID, idx, false, start)
	return nil
}

// allocFrame reserves a local frame for one object of d (its FarObj's
// frame), evicting cold objects if the remotable budget is exhausted,
// and registers the object in the CLOCK ring.
func (r *Runtime) allocFrame(d *DS, idx int) error {
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
			return err
		}
	}
	d.objs[idx].frame = r.arena.Alloc(d.Meta.ObjSize)
	r.remotableUsed += sz
	r.ring = append(r.ring, clockEntry{ds: d, idx: idx, epoch: d.objs[idx].epoch})
	return nil
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
			// re-localized under a newer epoch/entry). The swap-delete
			// moves the tail entry here, the fallback with it.
			switch fallbackPos {
			case r.hand:
				fallbackPos = -1
			case len(r.ring) - 1:
				fallbackPos = r.hand
			}
			r.removeRingEntry(r.hand)
		case obj.state == objInFlight:
			if p := obj.ent; p.at <= r.clock.Now() && p.ready() {
				// The payload has landed but no access consumed it: an
				// unused prefetch. Settle it to Local (evictable) so
				// speculative frames cannot wedge the cache — once the
				// completion has actually arrived (ready does not block).
				// Unless deref-scope protection keeps it, the next step
				// evicts it, so its payload is never laid into the frame.
				// A failed one reverts to remote with no store call (nobody
				// asked for it); its stale ring entry goes on a later pass.
				if r.harvest(p, r.accessSeq-obj.lastUse < recentWindow) != nil {
					r.release(e.ds, obj)
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
// round trip, which writes the whole image and so observes an unread
// object first, remains the fallback.
func (r *Runtime) evictObject(d *DS, idx, ringPos int) error {
	obj := &d.objs[idx]
	// Usually joins the root of the miss/prefetch whose allocFrame forced
	// this eviction; materialize-driven evictions open their own.
	rootMine := r.beginRoot()
	start := r.clock.Now()
	wasDirty := obj.dirty
	if obj.dirty {
		if !r.tryAsyncWriteBack(d, idx) {
			if err := r.observe(d, idx); err != nil {
				r.endRoot(rootMine)
				return err
			}
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
	// A write-back kills every chase of the structure on the wire: the
	// server may walk a pre-write image (settleChase).
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
// are the only transitions INTO objRemote, which is what
// remoteGen counts.
func (r *Runtime) release(d *DS, obj *FarObj) {
	r.arena.Free(obj.frame, d.Meta.ObjSize)
	r.remotableUsed -= uint64(d.Meta.ObjSize)
	obj.state = objRemote
	obj.dirty = false
	obj.rect = dirtyRect{}
	obj.ref = false
	obj.epoch++
	r.remoteGen++
	if obj.log != nil {
		r.putLog(obj.log)
		obj.log = nil
	}
}

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
// it is remote and capacity allows. Called by prefetchers. Finding the
// object remote, issued or not, makes the calling access not quiet
// (memo.go).
func (r *Runtime) PrefetchObj(d *DS, idx int) {
	if idx < 0 || idx >= len(d.objs) {
		return
	}
	// The checks down to allocFrame have no side effects. The state goes
	// first: on a scan whose window is resident or in flight it answers,
	// for a byte load where the breaker and the limits cost a dozen.
	obj := &d.objs[idx]
	if obj.state != objRemote {
		return
	}
	r.pfRemote = true
	// No speculation while the remote tier is degraded (or on trial).
	if r.breakerIsOpen() {
		return
	}
	// In-flight frames are unevictable: cap them at half the remotable
	// budget across ALL structures, or prefetchers running far ahead of a
	// small cache would wedge the allocator.
	sz := uint64(d.Meta.ObjSize)
	if d.inflight >= min(d.maxInflight, int(r.remotableBudget/sz/2)) || r.inflightBytes+sz > r.remotableBudget/2 {
		return
	}
	// Nothing stages over an entry: a staged write-back or hop is served
	// from the table, and a chase from here will stage the object.
	if e := obj.ent; e != nil && !e.gather {
		return
	}
	rootMine := r.beginRoot()
	if r.allocFrame(d, idx) != nil {
		r.endRoot(rootMine)
		return // no capacity: drop the hint
	}
	e, adopted := obj.ent, obj.ent != nil // a gather: its read becomes the prefetch's
	if adopted {
		*r.charged(e) -= e.bytes
		e.gather = false
		*r.charged(e) += e.bytes
		d.inflight++
	} else if e = r.newEntry(entryRead, d, idx); r.astore != nil {
		// Truly asynchronous issue: this goroutine moves on at once, so a
		// prefetcher puts its whole lookahead window on the wire in one
		// doorbell.
		r.issueRead(e)
	} else {
		// A plain Store's read lands in the frame now, under the async
		// rule: one attempt, a failed one dropped, unretried and not held
		// against the breaker (nobody asked for the object).
		e.settled = true
		if r.store.ReadObj(d.ID, idx, r.arena.Bytes(obj.frame, d.Meta.ObjSize)) != nil {
			r.putEntry(e)
			r.release(d, obj)
			r.endRoot(rootMine)
			return
		}
	}
	e.at = r.link.FetchAsync(d.Meta.ObjSize)
	if !adopted {
		r.track(e)
	}
	obj.state = objInFlight
	obj.ref = false
	d.stats.PrefetchIssued++
	d.quiet = -1 // the prefetcher's counters moved
	r.emit(EvPrefetch, d.ID, idx, false)
	r.endRoot(rootMine)
}

// getLog and putLog pool the store logs of unread objects.
func (r *Runtime) getLog() *storeLog {
	if l := len(r.logFree); l > 0 {
		g := r.logFree[l-1]
		r.logFree = r.logFree[:l-1]
		return g
	}
	return &storeLog{exts: make([]rdma.Extent, 0, storeLogCap)}
}

func (r *Runtime) putLog(l *storeLog) {
	l.exts = l.exts[:0]
	r.logFree = append(r.logFree, l)
}

// observe settles an unread object (no-op for any other): it waits for
// the object's own staged write — the splice a partial re-localization
// left in flight (serveStaged) — reads the base synchronously and lays
// the log over it, charging no clock: the miss did. On a failed read the
// object keeps its frame and log for its next observer.
func (r *Runtime) observe(d *DS, idx int) error {
	obj := &d.objs[idx]
	if obj.log == nil {
		return nil
	}
	if obj.ent != nil { // a local object's entry is its staged write-back
		obj.ent.wait()
	}
	sz := d.Meta.ObjSize
	buf := r.getBuf(sz)
	defer r.putBuf(buf)
	if err := r.storeRead(d, idx, buf); err != nil {
		return fmt.Errorf("farmem: unread ds%d[%d]: base read: %w", d.ID, idx, err)
	}
	frame := r.arena.Bytes(obj.frame, sz)
	for _, e := range obj.log.exts {
		copy(buf[e.Off:e.Off+e.Len], frame[e.Off:])
	}
	copy(frame, buf)
	r.putLog(obj.log)
	obj.log = nil
	return nil
}

// AllLocal answers the cards_all_local check of Listing 3: true iff every
// listed data structure has never been remoted, enabling the
// uninstrumented fast path.
func (r *Runtime) AllLocal(ids []int) bool {
	r.SettleHits()
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
	r.SettleHits()
	if d, idx, ok := r.locate(addr); ok {
		r.clock.Advance(r.model.PrefetchIssue)
		r.PrefetchObj(d, idx)
	}
}

// locate maps a tagged address inside its structure's extent to the
// structure and object index.
func (r *Runtime) locate(addr uint64) (*DS, int, bool) {
	d := r.DSByID(DSOf(addr))
	if !IsTagged(addr) || d == nil || OffOf(addr) >= d.size {
		return nil, 0, false
	}
	return d, int(OffOf(addr) >> d.objShift), true
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
	if obj.state != objLocal || r.observe(d, idx) != nil {
		return 0, false
	}
	return r.arena.Read8(obj.frame + uint64(byteOff)), true
}

// NumObjects returns the current object-table length of d.
func (d *DS) NumObjects() int { return len(d.objs) }
