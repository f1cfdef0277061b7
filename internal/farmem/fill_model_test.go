package farmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cards/internal/testutil"
)

// TestFillModelHistories runs seeded histories of store-once stores,
// plain writes, loads, ObjectWord reads and forced evictions over eight
// 64-byte objects against a flat model of their words, in room for
// three frames and two staged write-backs, over a store whose ops land
// late, the same leaving its reads in wire form (with words-sized values)
// and one whose splices are lost or uncertain. Every load must read
// the model, no read may overlap a write of its object, and once every
// object is evicted and the write-backs drained the far tier must hold
// the model. Across the histories some miss must re-localize an object
// from a staged splice, and some splice must be rebuilt.
func TestFillModelHistories(t *testing.T) {
	const objSize, nObj, words = 64, 8, 8
	var relocalized, rebuilt uint64
	for seed := int64(1); seed <= 40; seed++ {
		for _, kind := range []string{"late", "failing", "wire"} {
			base := NewMapStore()
			var store Store
			late := testutil.NewLateAsync(base, 50*time.Microsecond, seed)
			switch kind {
			case "late":
				store = late
			case "wire":
				store = testutil.WireLate{LateAsync: late}
			default:
				store = &testutil.FailingAsync{ObjStore: base, SpliceFails: true}
			}
			name := fmt.Sprintf("seed %d over %s splices", seed, kind)
			r := New(Config{PinnedBudget: 1 << 16, RemotableBudget: 3 * objSize, WriteBackBudget: 2 * objSize,
				Store: store, RangeWriteback: seed%2 == 0})
			r.RegisterDS(0, DSMeta{ObjSize: objSize, ElemSize: 8})
			r.SetPlacement(0, PlaceRemotable)
			addr, err := r.DSAlloc(0, nObj*objSize)
			if err != nil {
				t.Fatal(err)
			}
			d := r.DSByID(0)
			model := make([]uint64, nObj*words)
			rng := rand.New(rand.NewSource(seed))
			val := func() uint64 { // words-sized over the wire-form store
				if kind == "wire" {
					return rng.Uint64() >> 33
				}
				return rng.Uint64()
			}
			for step := 0; step < 400; step++ {
				w := rng.Intn(len(model))
				idx, off := w/words, uint64(8*w)
				p := stagedWB(r, idx)
				staged := p != nil && p.partial && d.objs[idx].state == objRemote
				var g uint64
				switch op := rng.Intn(10); {
				case op < 4:
					if g, err = r.GuardStore(addr+off, 0, 8); err == nil {
						model[w] = val()
						r.WriteWord(g, model[w])
					}
				case op < 6:
					if g, err = r.GuardSpan(addr+off, true, 0, 8); err == nil {
						model[w] = val()
						r.WriteWord(g, model[w])
					}
				case op < 8:
					if g, err = r.Guard(addr+off, false); err == nil {
						if v, _ := r.ReadWord(g); v != model[w] {
							t.Fatalf("%s, step %d: word %d reads %#x, model %#x", name, step, w, v, model[w])
						}
					}
				case op < 9:
					if v, ok := r.ObjectWord(d, idx, 8*(w%words)); ok && v != model[w] {
						t.Fatalf("%s, step %d: ObjectWord of word %d = %#x, model %#x", name, step, w, v, model[w])
					}
				default:
					if len(r.ring) > 0 {
						err = r.evictOne()
					}
				}
				if err != nil {
					t.Fatalf("%s, step %d: %v", name, step, err)
				}
				if staged && d.objs[idx].state == objLocal {
					relocalized++
				}
				checkTable(t, r)
			}
			for len(r.ring) > 0 {
				if err := r.evictOne(); err != nil && len(r.ring) > 0 {
					t.Fatalf("%s: final eviction: %v", name, err)
				}
			}
			if err := r.Close(); err != nil {
				t.Fatalf("%s: drain: %v", name, err)
			}
			late.Wait()
			if n := late.Overlaps(); n != 0 {
				t.Fatalf("%s: %d reads overlapped a write of their object", name, n)
			}
			img := make([]byte, objSize)
			for idx := 0; idx < nObj; idx++ {
				base.ReadObj(0, idx, img)
				for k := 0; k < words; k++ {
					if v := binary.LittleEndian.Uint64(img[8*k:]); v != model[idx*words+k] {
						t.Fatalf("%s: far tier word %d = %#x, model %#x", name, idx*words+k, v, model[idx*words+k])
					}
				}
			}
			if kind == "failing" {
				rebuilt += r.Stats().WriteBackReissues
			}
		}
	}
	if relocalized == 0 || rebuilt == 0 {
		t.Fatalf("%d re-localizations from a staged splice, %d rebuilt splices; want both", relocalized, rebuilt)
	}
	t.Logf("%d re-localizations from a staged splice, %d rebuilt splices", relocalized, rebuilt)
}
