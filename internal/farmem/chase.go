package farmem

import "cards/internal/rdma"

// Server-side traversal offload (the chase verbs, paper §4.2's
// pointer-chase pattern taken to its logical end). A K-hop pointer chase
// is the one access pattern a pipelined window cannot help: each hop's
// address comes out of the previous object. When the far tier speaks the
// chase verbs, the runtime ships a traversal program — structure, start
// object, next-pointer offset, hop budget — and receives the whole path,
// whole objects, in one round trip. The program and the returned hops
// are hop entries of the in-flight table (table.go), served to the
// traversal's later derefs at memory speed.

// AsyncChaseStore is the traversal-offload surface of a far tier
// (remote.PipelinedClient, shardmap.ShardedStore, replica.Store).
// Capability is advisory and session-scoped: it can flip after a
// reconnect or failover, so callers must still handle errors by
// degrading to per-hop reads. IssueChase does not block the caller;
// done is invoked exactly once — possibly on another goroutine — with a
// caller-owned result, and must not block. Chase is IssueChase, waited
// for. The runtime detects the capability by type assertion and offloads
// only through IssueChase (a blocking chase on the prefetch path would
// stall the application thread it exists to unblock).
type AsyncChaseStore interface {
	ChaseCapable() bool
	Chase(req rdma.ChaseReq) (rdma.ChaseResult, error)
	IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error))
}

// DefaultChaseHops is the hop budget a chase prefetcher ships per
// program when the caller does not choose one.
const DefaultChaseHops = 16

// ChaseReady reports whether traversal offload is usable for d now: the
// far tier speaks the chase verbs on its live session, the breaker
// allows speculation, and d is a single-successor linked structure (the
// only shape a one-offset program can describe).
func (r *Runtime) ChaseReady(d *DS) bool {
	return r.chaser != nil && !r.breakerIsOpen() &&
		d.Meta.Recursive && len(d.Meta.PtrOffsets) == 1 &&
		r.chaser.ChaseCapable()
}

// chaseNextOff is the next-pointer offset a traversal program for d
// carries. Objects pack ObjSize/ElemSize elements, and the chain walks
// the elements in order — so the cross-OBJECT edge is the successor
// field of the last element packed into each object; every earlier
// element's successor stays inside the object. A program chasing the
// first element's field would visit the same object over and over.
func chaseNextOff(d *DS) int {
	off := d.Meta.PtrOffsets[0]
	if es := d.Meta.ElemSize; es > 0 && d.Meta.ObjSize >= 2*es {
		off += (d.Meta.ObjSize/es - 1) * es
	}
	return off
}

// ChasePrefetch offloads the traversal ahead of object idx of d: it
// reads the successor pointer of the (resident) object and, when the
// successor is remote and not already covered, ships a traversal program
// with the given hop budget. It reports whether the traversal ahead is
// covered by the offload machinery — false means the caller should fall
// back to per-hop prefetching.
func (r *Runtime) ChasePrefetch(d *DS, idx, hops int) bool {
	if !r.ChaseReady(d) {
		return false
	}
	word, ok := r.ObjectWord(d, idx, chaseNextOff(d))
	if !ok || !IsTagged(word) || DSOf(word) != d.ID {
		// End of chain, a cross-structure edge, or the object is not
		// resident: nothing a traversal program from here can cover.
		return false
	}
	off := OffOf(word)
	if off >= d.size {
		return false
	}
	start := int(off >> d.objShift)
	if obj := &d.objs[start]; obj.state != objRemote {
		return true // successor already local or arriving: covered
	} else if e := obj.ent; e != nil && !e.gather {
		// A staged hop or a chase from here covers it. A staged
		// write-back's bytes are served from staging, and a chase through
		// it could observe the pre-write image.
		return e.kind == entryHop
	}
	return r.issueChase(d, start, hops)
}

// issueChase ships one traversal program starting at a remote object.
func (r *Runtime) issueChase(d *DS, start, hops int) bool {
	if hops <= 0 {
		hops = DefaultChaseHops
	}
	// Staged hops and bytes in flight are each capped at half the
	// remotable budget, like prefetches. A program that does not fit
	// shrinks to the headroom — a shorter chase still collapses its hops
	// into one round trip — down to two hops: one is a plain read.
	objSize := uint64(d.Meta.ObjSize)
	half := r.remotableBudget / 2
	r.harvestChases()
	avail := half - min(half, max(r.inflightBytes, r.chaseStagedBytes))
	if maxHops := avail / objSize; uint64(hops) > maxHops {
		if maxHops < 2 {
			return false
		}
		hops = int(maxHops)
	}
	bytes := uint64(hops) * objSize
	rootMine := r.beginRoot()
	p := r.newEntry(entryHop, d, start)
	p.gen, p.bytes = d.chaseGen, bytes
	req := rdma.ChaseReq{DS: uint32(d.ID), Start: uint32(start), ObjSize: uint32(d.Meta.ObjSize),
		NextOff: uint32(chaseNextOff(d)), Hops: uint32(hops)}
	r.chaser.IssueChase(req, func(res rdma.ChaseResult, err error) {
		p.res = res
		p.fn(err)
	})
	// One round trip carries the whole window's payload.
	p.at = r.link.FetchAsync(int(bytes))
	r.track(p)
	r.stats.ChasesIssued++
	d.stats.PrefetchIssued++
	d.quiet = -1 // the prefetcher's counters moved
	r.emit(EvPrefetch, d.ID, start, false)
	r.endRoot(rootMine)
	return true
}

// harvestChases settles every chase program whose completion has
// arrived, without blocking; a no-op inside another sweep.
func (r *Runtime) harvestChases() {
	if r.kinds[entryHop] == 0 {
		return
	}
	r.sweep(func(p *entry) {
		if p.program() && r.clock.Now() >= p.at && p.ready() {
			r.settleChase(p)
		}
	})
}

// settleChase consumes one completed chase: it drops the program,
// checks its chase generation and stages every hop it may (stageable).
// When the server stopped on the hop budget with the chain still live
// it issues the next program, so a long traversal keeps one window on
// the wire.
func (r *Runtime) settleChase(p *entry) {
	d, res, err, gen := p.d, p.res, p.err, p.gen
	hops := int(p.bytes / uint64(d.Meta.ObjSize))
	r.drop(p)
	if err != nil {
		// Transport trouble or a downgraded session: the traversal
		// degrades to per-hop reads (the deref path never depended on
		// this result arriving).
		r.stats.ChaseFallbacks++
		return
	}
	if d.chaseGen != gen {
		// A write-back landed while the program was in flight: the server
		// may have walked a pre-write image. Drop the whole path.
		r.stats.ChaseStale++
		return
	}
	for _, h := range res.Hops {
		idx := int(h.Idx)
		if idx < 0 || idx >= len(d.objs) || len(h.Data) != d.Meta.ObjSize || !r.stageable(d, idx) {
			continue
		}
		// The hop data is caller-owned (the transport deep-copied it out
		// of the reply frame), so it stages without another copy.
		e := r.newEntry(entryHop, d, idx)
		e.buf, e.settled = h.Data, true
		r.track(e)
		r.stats.ChaseHopsStaged++
	}
	if res.Status == rdma.ChaseHops {
		// Budget spent, chain still live: keep the pipeline primed by
		// chasing on from the first unvisited node.
		word := res.Final
		if IsTagged(word) && DSOf(word) == d.ID && r.ChaseReady(d) {
			if off := OffOf(word); off < d.size && r.stageable(d, int(off>>d.objShift)) {
				r.issueChase(d, int(off>>d.objShift), hops)
			}
		}
	}
}

// stageable reports whether a chase may stage object idx of d: it is
// remote and has no entry but a gather, which gives way (track).
func (r *Runtime) stageable(d *DS, idx int) bool {
	e := d.objs[idx].ent
	return d.objs[idx].state == objRemote && (e == nil || e.gather)
}
