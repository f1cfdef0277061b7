package farmem

import "cards/internal/rdma"

// The in-flight table: an object between issue and settle has one
// entry, hung on its FarObj (ent) and listed in issue order on
// Runtime.order. An entry is
//
//   - a read: an objInFlight object's prefetch. Over an AsyncStore the
//     payload lands in a staging buffer, not the frame (the arena slab
//     may move while the read is out); a plain Store's read landed in the
//     frame at issue. Deref waits and harvests it; the CLOCK hand settles
//     it once landed. Or a gather (gather.go): a frameless read of an
//     objRemote object, which gives way to any other entry.
//   - a hop: a chase program on the wire, on its start object, or one
//     object of a returned path, staged. Its object is objRemote.
//   - a write-back: an evicted dirty object's snapshot, in flight,
//     retired or parked (writeback.go). It outlives a re-localization
//     from staging while its write is out.
//
// The four rules, one check each (DESIGN.md §7):
//
//   - Read-your-writes: a miss on an object with an entry is served from
//     it (serveStaged), never from a read that could race its write.
//   - Per-object ordering: re-evicting an object settles its write-back
//     first (tryAsyncWriteBack).
//   - Eviction kills a staged hop: a dirty eviction, and its write-back's
//     drop, advance the chase generation, and a program issued under an
//     older one is dropped whole when it settles (settleChase).
//   - Nothing stages over an entry: PrefetchObj, ChasePrefetch and a
//     chase reply pass over an object that has one.

// entryKind is what an entry holds.
type entryKind uint8

const (
	entryRead entryKind = iota
	entryHop
	entryWB
	entryKinds
)

// entry is one object's slot in the in-flight table. Entries are
// pooled with their completion, reused only once it was received: the
// proof that the store is done with the entry and its buffer.
type entry struct {
	kind entryKind
	// A write-back's state. partial: an unread object's splice, buf
	// valid only inside exts (rewriteWB rebuilds the image). parked: its
	// write and the reissue were refused, so buf is the only durable copy
	// until a recovery drain. retired: the budget stall settled it in
	// virtual time before its ack (waitOldestWB), charged to wbRetired.
	// gather: a frameless read, charged to gatherBytes.
	partial, parked, retired, gather bool

	d   *DS
	idx int
	pos int    // index on Runtime.order
	at  uint64 // virtual cycle the transfer settles
	// buf is the pooled staging buffer — a read's payload, a write-back's
	// snapshot, a staged hop — or nil: a plain Store's read, a program.
	// blk is what a read's buf holds: a reply the store left in wire form
	// (WireReadStore), or the zero Block, the object's bytes.
	buf []byte
	blk rdma.Block
	// exts are the ranges a write-back was issued as (dirtyrange.go).
	exts []rdma.Extent
	// bytes is the entry's charge: its object's size, or a chase
	// program's hop budget of objects. gen and res are a program's chase
	// generation (d.chaseGen at issue) and the path the store delivers.
	gen, bytes uint64
	res        rdma.ChaseResult
	completion
}

// program reports whether e is a chase program still on the wire.
func (e *entry) program() bool { return e.kind == entryHop && e.buf == nil }

// newEntry takes an entry for object idx of d from the pool; track adds
// it to the table once its fields are set.
func (r *Runtime) newEntry(kind entryKind, d *DS, idx int) *entry {
	var e *entry
	if n := len(r.entFree); n > 0 {
		e = r.entFree[n-1]
		r.entFree = r.entFree[:n-1]
	} else {
		e = &entry{completion: newCompletion()}
	}
	e.kind, e.d, e.idx, e.bytes = kind, d, idx, uint64(d.Meta.ObjSize)
	return e
}

// putEntry recycles an entry out of the table. One whose completion was
// never received is left to the collector: the store may still call it.
func (r *Runtime) putEntry(e *entry) {
	if !e.settled {
		return
	}
	*e = entry{completion: completion{ch: e.ch, fn: e.fn}}
	r.entFree = append(r.entFree, e)
}

// charged returns the byte counter e's bytes are charged to.
func (r *Runtime) charged(e *entry) *uint64 {
	switch {
	case e.gather:
		return &r.gatherBytes
	case e.kind == entryRead || e.program():
		return &r.inflightBytes
	case e.kind == entryHop:
		return &r.chaseStagedBytes
	case e.retired:
		return &r.wbRetired
	}
	return &r.wbBytes
}

// track hangs e on its object, dropping a gather there, lists it and
// charges its bytes. A list that is full and at least half dead is
// compacted first.
func (r *Runtime) track(e *entry) {
	if g := e.d.objs[e.idx].ent; g != nil && g.gather {
		r.drop(g)
	}
	live := r.kinds[entryRead] + r.kinds[entryHop] + r.kinds[entryWB]
	if n := len(r.order); n == cap(r.order) && 2*live <= n {
		r.sweep(nil)
	}
	e.d.objs[e.idx].ent = e
	e.pos = len(r.order)
	r.order = append(r.order, e)
	r.kinds[e.kind]++
	if e.kind == entryRead && !e.gather {
		e.d.inflight++
	}
	*r.charged(e) += e.bytes
}

// drop is the one way out of the table: it unhooks e, leaves a hole in
// the list, returns its bytes and recycles its buffers — a read's only
// once the store is done with it — and the entry. Dropping a write-back
// makes the structure's chase programs stale: one issued while the write
// was out may have walked the object before it landed (one issued before
// it already is, by the eviction's generation bump).
func (r *Runtime) drop(e *entry) {
	if obj := &e.d.objs[e.idx]; obj.ent == e {
		obj.ent = nil
	}
	if e.kind == entryWB {
		e.d.chaseGen++
	}
	r.order[e.pos] = nil
	r.kinds[e.kind]--
	if e.kind == entryRead && !e.gather {
		e.d.inflight--
	}
	*r.charged(e) -= e.bytes
	if e.settled {
		r.putBuf(e.buf)
	}
	r.putExtBuf(e.exts)
	r.putEntry(e)
}

// sweep is the one walk over the order list: it calls visit (if any) on
// every entry in issue order, then compacts the list in place; entries
// tracked during the walk are not visited. It reports false, visiting
// nothing, inside another sweep: a reissue's storeOp can reach
// drainParked, and a settling chase issues a continuation, which
// harvests; neither may rebuild the list under the walk above it.
func (r *Runtime) sweep(visit func(e *entry)) bool {
	if r.sweeping {
		return false
	}
	r.sweeping = true
	n, k := len(r.order), 0
	for i := 0; i < len(r.order); i++ {
		e := r.order[i]
		if e != nil && i < n && visit != nil {
			visit(e)
		}
		if e != nil && r.order[i] == e { // still live: drop leaves a hole
			r.order[k], e.pos = e, k
			k++
		}
	}
	clear(r.order[k:])
	r.order = r.order[:k]
	r.sweeping = false
	return true
}

// getBuf returns a staging buffer of exactly n bytes from the runtime's
// pool, one free list per size class (data structures have fixed object
// sizes, so the classes are few).
func (r *Runtime) getBuf(n int) []byte {
	if free := r.bufFree[n]; len(free) > 0 {
		b := free[len(free)-1]
		r.bufFree[n] = free[:len(free)-1]
		return b
	}
	return make([]byte, n)
}

// putBuf parks a staging buffer for reuse, keeping spares per size class
// up to the most staging holds at once — half the remotable budget each
// of reads and gathers, and twice the write-back budget — so a bulk
// release is reused.
func (r *Runtime) putBuf(b []byte) {
	if b == nil {
		return
	}
	if free := r.bufFree[len(b)]; uint64((len(free)+1)*len(b)) <= r.baseRemotableBudget+2*r.wbBudget {
		r.bufFree[len(b)] = append(free, b)
	}
}

// issueRead puts read entry e on the wire into a staging buffer, in
// wire form where the store can leave it so.
func (r *Runtime) issueRead(e *entry) {
	e.buf = r.getBuf(e.d.Meta.ObjSize)
	if r.wstore != nil {
		r.wstore.IssueReadWire(e.d.ID, e.idx, e.buf, &e.blk, e.fn)
	} else {
		r.astore.IssueRead(e.d.ID, e.idx, e.buf, e.fn)
	}
}

// land lays a landed read's payload into frame: a block is decoded
// there, in one pass, and anything else copied. A words block was
// checked on delivery, so it cannot fail.
func (r *Runtime) land(e *entry, frame uint64) {
	src := e.buf
	if e.blk.Len > 0 {
		src = src[:e.blk.Len]
	}
	if rdma.UnpackBlock(e.blk.Scheme, r.arena.Bytes(frame, e.d.Meta.ObjSize), src) != nil {
		panic("farmem: a read's block, checked on delivery, no longer decodes")
	}
	r.lands++
}

// harvest settles an in-flight object's read and drops its entry; use
// lays the payload into the frame — the CLOCK hand settles an unused
// read it evicts next without. A failed read is returned unretried and
// not held against the breaker; the object keeps its frame.
func (r *Runtime) harvest(e *entry, use bool) error {
	defer r.drop(e)
	if err := e.wait(); err != nil {
		return err
	}
	if use {
		r.land(e, e.d.objs[e.idx].frame)
	}
	return nil
}

// serveStaged re-localizes a remote object from its entry — a
// write-back's snapshot or a staged hop — first waiting out a chase
// program that starts at the object (cheaper than a round trip). No
// network, no breaker gate. Returns false when nothing is staged: a
// gather serves the miss that follows (takeGather).
func (r *Runtime) serveStaged(d *DS, idx int) (bool, error) {
	obj := &d.objs[idx]
	if obj.ent == nil || obj.ent.kind != entryWB {
		r.harvestChases()
	}
	e := obj.ent
	if e != nil && e.program() {
		start := r.clock.Now()
		r.link.WaitUntil(e.at)
		e.wait()
		r.settleChase(e)
		d.pfWaitHist.Observe(r.clock.Now() - start)
		e = obj.ent
	}
	if e == nil || e.gather {
		return false, nil
	}
	// Snapshot before allocFrame, whose evictions can settle and recycle
	// a write-back entry; a partial one re-localizes the object unread,
	// its extents the log, taken here for the same reason.
	sz := d.Meta.ObjSize
	tmp := r.getBuf(sz)
	copy(tmp, e.buf)
	var log *storeLog
	if e.partial {
		log = r.getLog()
		log.exts = append(log.exts, e.exts...)
	}
	hop := e.kind == entryHop
	if hop {
		r.drop(e)
	}
	if err := r.allocFrame(d, idx); err != nil {
		r.putBuf(tmp)
		return false, err
	}
	copy(r.arena.Bytes(obj.frame, sz), tmp)
	r.putBuf(tmp)
	obj.state, obj.log = objLocal, log
	if hop {
		r.stats.ChaseStagingHits++
		d.stats.PrefetchHits++
		r.emit(EvPrefetchHit, d.ID, idx, false)
		return true, nil
	}
	if obj.ent == e && e.parked {
		// The frame takes over as the only durable copy: the object
		// re-localizes dirty, and as the remote base predates the parked
		// write, whole (an unread object's still ships its log).
		r.drop(e)
		obj.dirty = true
		obj.rect = dirtyRect{full: true}
	}
	r.stats.WriteBackStagingHits++
	r.emit(EvMaterialize, d.ID, idx, false)
	return true, nil
}
