package farmem

import (
	"cmp"
	"slices"

	"cards/internal/rdma"
)

// Compiler-aided dirty-range write-back. A write guard knows statically
// which bytes its store touches (ir.Instr.GLo/GHi). The runtime folds
// those spans per resident object into a dirty rectangle — element rows
// touched × byte range within one element — and, when it covers a small
// fraction of the object, the eviction ships only those extents over
// the WRITERANGE sub-encoding (remote.IssueWriteRanges); the far tier
// splices them into its stored image.
//
// Soundness: a frame starts as an exact copy of the remote image (a
// fetch) or as zeros matching an absent object (a cold materialize), and
// every store marks its range — a spanless write widens the rectangle
// to the whole object — so bytes outside the rectangle match on both
// sides. The staging snapshot is still the FULL object, so the reissue
// of a failed or uncertain range write (settleWB, drainParked) replays
// the whole image. An unread frame (see deref) rides the same verb: it
// ships its store log as a splice, and its reissue rebuilds the image
// from the base first (rewriteWB).

// dirtyRect is the accumulated written region of one resident object:
// element rows [eLo, eHi] (inclusive) crossed with the byte range
// [fLo, fHi) within one element row. full marks unknown coverage (a
// spanless write): the whole object is dirty.
type dirtyRect struct {
	eLo, eHi uint16
	fLo, fHi uint16
	full     bool
}

// rangeCoverageMax gates the range write-back: extents are shipped only
// while they cover at most ~60% of the object (coverage*10 <= size*6);
// past that the framing overhead and the server-side splice cost more
// than the bytes saved, and the full object goes out instead.
const rangeCoverageMax = 6

// rectShift returns log2 of the dirty-rectangle row size for a structure
// with metadata m: the element size when elements tile the object
// exactly and offsets fit the rect's u16 fields, else the whole object
// (a single row). RegisterDS rounds ObjSize up to a power of two, so
// either is one, and rows are found by shifting, never by dividing.
func rectShift(m DSMeta) uint {
	es := m.ElemSize
	if es <= 0 || m.ObjSize%es != 0 || m.ObjSize > 0xFFFF {
		es = m.ObjSize
	}
	return log2(es)
}

// markDirty folds one written byte span [objOff+lo, objOff+hi) into the
// object's dirty rectangle. hi <= lo means the span is unknown; the
// structure's compiler-derived write footprint (DSMeta.WriteFootprint)
// then bounds the field range for the touched element, and when even
// that is absent the rectangle widens to the whole object.
func (r *Runtime) markDirty(d *DS, obj *FarObj, objOff, lo, hi int) {
	fresh := !obj.dirty
	obj.dirty = true
	if obj.rect.full && !fresh {
		return
	}
	elem := 1 << d.rowShift
	a, b := objOff+lo, objOff+hi
	if hi <= lo {
		// Spanless write: fall back to the structure's static footprint.
		if fp := d.Meta.WriteFootprint; len(fp) > 0 && elem != d.Meta.ObjSize {
			e := uint16(objOff >> d.rowShift)
			f0, f1 := fp[0][0], fp[0][1]
			for _, w := range fp[1:] {
				f0, f1 = min(f0, w[0]), max(f1, w[1])
			}
			r.unionRect(obj, fresh, e, e, clampU16(f0, elem), clampU16(f1, elem))
			return
		}
		obj.rect = dirtyRect{full: true}
		return
	}
	if a < 0 {
		a = 0
	}
	if b > d.Meta.ObjSize {
		b = d.Meta.ObjSize
	}
	if b <= a {
		return
	}
	e0, e1 := a>>d.rowShift, (b-1)>>d.rowShift
	var f0, f1 int
	if e0 == e1 {
		f0, f1 = a-e0*elem, b-e0*elem
	} else {
		// The span crosses element rows: the rectangle abstraction can
		// only widen the field range to the full row.
		f0, f1 = 0, elem
	}
	r.unionRect(obj, fresh, uint16(e0), uint16(e1), clampU16(f0, elem), clampU16(f1, elem))
}

func clampU16(v, lim int) uint16 {
	if v < 0 {
		return 0
	}
	if v > lim {
		v = lim
	}
	return uint16(v)
}

func (r *Runtime) unionRect(obj *FarObj, fresh bool, eLo, eHi, fLo, fHi uint16) {
	if fresh {
		obj.rect = dirtyRect{eLo: eLo, eHi: eHi, fLo: fLo, fHi: fHi}
		return
	}
	if obj.rect.full {
		return
	}
	rc := &obj.rect
	rc.eLo, rc.eHi = min(rc.eLo, eLo), max(rc.eHi, eHi)
	rc.fLo, rc.fHi = min(rc.fLo, fLo), max(rc.fHi, fHi)
}

// RangeWriteStore is an AsyncWriteStore that can ship only the modified
// byte ranges of an object: exts are the modified (offset, length)
// ranges, sorted and non-overlapping, and the far tier splices the
// extent bytes of src into its stored copy. src is valid only inside
// exts — an unread object's splice (see deref) has no other bytes — so
// an implementation must never store src whole when exts is non-nil.
// Implemented by the compact-tier remote clients; detected by type
// assertion. The runtime ships dirty ranges when Config.RangeWriteback
// is set, and the logs of unread objects whatever it says.
type RangeWriteStore interface {
	AsyncWriteStore
	IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error))
}

// rangeExtents derives the write-back extents for obj from its dirty
// rectangle, one extent per touched element row. It returns nil — full
// object — when the range path is off, the rectangle is unknown, the
// coverage gate fails, or the row count exceeds the wire's extent cap.
func (r *Runtime) rangeExtents(d *DS, obj *FarObj) []rdma.Extent {
	if !r.rangeWB || obj.rect.full || !obj.dirty {
		return nil
	}
	rc := obj.rect
	elem := 1 << d.rowShift
	rows := int(rc.eHi) - int(rc.eLo) + 1
	fw := int(rc.fHi) - int(rc.fLo)
	if fw <= 0 || rows <= 0 || rows > rdma.MaxExtents {
		return nil
	}
	covered := rows * fw
	if covered*10 > d.Meta.ObjSize*rangeCoverageMax {
		return nil
	}
	if fw == elem && rows > 1 {
		// Adjacent full rows merge into one contiguous extent.
		exts := r.getExtBuf(1)
		return append(exts, rdma.Extent{Off: uint32(int(rc.eLo) * elem), Len: uint32(covered)})
	}
	exts := r.getExtBuf(rows)
	for i := 0; i < rows; i++ {
		off := (int(rc.eLo)+i)*elem + int(rc.fLo)
		exts = append(exts, rdma.Extent{Off: uint32(off), Len: uint32(fw)})
	}
	return exts
}

// getExtBuf and putExtBuf pool extent slices like getBuf pools staging
// buffers (single-threaded runtime, no locking).
func (r *Runtime) getExtBuf(n int) []rdma.Extent {
	if l := len(r.extFree); l > 0 {
		b := r.extFree[l-1]
		r.extFree = r.extFree[:l-1]
		return b[:0]
	}
	return make([]rdma.Extent, 0, n)
}

func (r *Runtime) putExtBuf(b []rdma.Extent) {
	if b != nil && len(r.extFree) < 32 {
		r.extFree = append(r.extFree, b)
	}
}

// spliceExtents returns the extents of an unread object's store log
// sorted and merged, as a range write wants them.
func (r *Runtime) spliceExtents(l *storeLog) []rdma.Extent {
	exts := append(r.getExtBuf(len(l.exts)), l.exts...)
	slices.SortFunc(exts, func(a, b rdma.Extent) int { return cmp.Compare(a.Off, b.Off) })
	out := exts[:1]
	for _, e := range exts[1:] {
		if last := &out[len(out)-1]; e.Off <= last.Off+last.Len {
			last.Len = max(last.Len, e.Off+e.Len-last.Off)
		} else {
			out = append(out, e)
		}
	}
	return out
}
