package farmem

// Compiler-named gathers (DESIGN.md §5, §7): on a network miss of a site
// whose address the compiler named as a chain of loads, the runtime reads
// the next iterations' targets ahead as frameless entries of the
// in-flight table, below virtual time.

// Gather is a guard site's chain (ir.Gather) in frame slots: for the
// next iterations' x = frame[IV] + k*Step < frame[Bound], each step sets
// x = frame[Base] + x*Scale + Off, loading the word at x after every step
// but the last; the last step's x is the site's address.
type Gather struct {
	Frame     func() []uint64 // the site's live activation frame
	IV, Bound int32
	Step      int64
	Steps     []GatherStep
}

// GatherStep is one link of a Gather.
type GatherStep struct {
	Base       int32
	Scale, Off int64
}

// gatherDepth is how many iterations ahead a miss walks its chain.
const gatherDepth = 8

// gatherAhead walks g for the iterations after the current one and
// gathers every target it reaches, until its bytes reach their cap. It
// runs before the miss's own read, so one doorbell carries them all.
func (r *Runtime) gatherAhead(g *Gather) {
	if r.astore == nil || r.breakerIsOpen() {
		return
	}
	fr := g.Frame()
	iv, bound := int64(fr[g.IV]), int64(fr[g.Bound])
	for k := int64(1); k <= gatherDepth && iv+k*g.Step < bound; k++ {
		x, ok := uint64(iv+k*g.Step), true
		for i, s := range g.Steps {
			if i > 0 {
				if x, ok = r.peek(x); !ok {
					break
				}
			}
			x = fr[s.Base] + x*uint64(s.Scale) + uint64(s.Off)
		}
		if ok && !r.gather(x) {
			return
		}
	}
}

// peek reads the word at addr when its bytes are resident — pinned, or
// an objLocal object with no store log — with no guard, charge or
// reference bit.
func (r *Runtime) peek(addr uint64) (uint64, bool) {
	if !IsTagged(addr) {
		w, err := r.ReadWord(addr)
		return w, err == nil
	}
	d, idx, ok := r.locate(addr)
	if !ok {
		return 0, false
	}
	obj, off := &d.objs[idx], OffOf(addr)&uint64(d.Meta.ObjSize-1)
	if obj.state != objLocal || obj.log != nil || off+8 > uint64(d.Meta.ObjSize) {
		return 0, false
	}
	return r.arena.Read8(obj.frame + off), true
}

// gather issues a frameless read of addr's object if it is remote with no
// entry; false once gathers would pass half the remotable budget.
func (r *Runtime) gather(addr uint64) bool {
	d, idx, ok := r.locate(addr)
	if !ok || d.objs[idx].state != objRemote || d.objs[idx].ent != nil {
		return true
	}
	if r.gatherBytes+uint64(d.Meta.ObjSize) > r.remotableBudget/2 {
		return false
	}
	e := r.newEntry(entryRead, d, idx)
	e.gather = true
	r.track(e)
	r.issueRead(e)
	r.stats.GathersIssued++
	return true
}

// takeGather serves a miss into frame from the object's gather, if any,
// waiting for its read; a failed one is dropped silently (false).
func (r *Runtime) takeGather(d *DS, idx int, frame uint64) bool {
	e := d.objs[idx].ent
	if e == nil || !e.gather {
		return false
	}
	err := e.wait()
	if err == nil {
		r.land(e, frame)
		r.stats.GatherHits++
	}
	r.drop(e)
	return err == nil
}
