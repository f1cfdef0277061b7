package farmem

import (
	"testing"
)

// quietProbe is a QuietPrefetcher that issues nothing, always declares
// its repeats quiet and counts the calls it gets.
type quietProbe struct{ calls int }

func (*quietProbe) Name() string                        { return "probe" }
func (p *quietProbe) OnAccess(*Runtime, *DS, int, bool) { p.calls++ }
func (*quietProbe) QuietOnRepeat() bool                 { return true }
func (p *quietProbe) expect(t *testing.T, n int, what string) {
	t.Helper()
	if p.calls != n {
		t.Fatalf("%s: prefetcher called %d times, want %d", what, p.calls, n)
	}
}

func memoRuntime(t *testing.T, store Store, objs int, trackFM bool) (*Runtime, *quietProbe, uint64) {
	t.Helper()
	r := New(Config{PinnedBudget: 1 << 16, RemotableBudget: 2 * 64, Store: store, TrackFMGuards: trackFM})
	t.Cleanup(func() { r.Close() })
	if _, err := r.RegisterDS(0, DSMeta{ObjSize: 64, ElemSize: 8}); err != nil {
		t.Fatal(err)
	}
	r.SetPlacement(0, PlaceRemotable)
	p := &quietProbe{}
	r.SetPrefetcher(0, p)
	base, err := r.DSAlloc(0, int64(objs*64))
	if err != nil {
		t.Fatal(err)
	}
	return r, p, base
}

// TestMemoHitsSettleAsGuards drives one runtime through site memos and a
// twin through GuardSpan with the same accesses — runs of repeats on one
// object from one site, a write site whose hits land in different rows,
// other
// objects that evict, an untagged guard — in CaRDS and TrackFM modes:
// after each settle the clock, the counters, the structure's counters
// and every object's sequence number, reference and dirty state and
// dirty rectangle must match.
func TestMemoHitsSettleAsGuards(t *testing.T) {
	for _, trackFM := range []bool{false, true} {
		r, _, base := memoRuntime(t, nil, 4, trackFM)
		twin, _, _ := memoRuntime(t, nil, 4, trackFM)
		local, err := r.AllocLocal(64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := twin.AllocLocal(64); err != nil {
			t.Fatal(err)
		}
		var sites [3]HitMemo
		type access struct {
			site  int
			addr  uint64
			write bool
		}
		var script []access
		for round := uint64(0); round < 3; round++ {
			for k := uint64(0); k < 5; k++ {
				script = append(script, access{0, base + 8*k, false})
			}
			for k := uint64(0); k < 5; k++ {
				script = append(script, access{1, base + 64*round + 8*(7-k), true})
			}
			script = append(script, access{2, local + 8*round, round == 1}, access{0, base + 64*(round+1), false})
		}
		for i, a := range script {
			if _, err := r.GuardSite(&sites[a.site], a.addr, a.write, false, 0, 8); err != nil {
				t.Fatal(err)
			}
			if _, err := twin.GuardSpan(a.addr, a.write, 0, 8); err != nil {
				t.Fatal(err)
			}
			if i%3 != 2 && i != len(script)-1 {
				continue // let several sites' hits pend
			}
			r.SettleHits()
			if r.Clock().Now() != twin.Clock().Now() || r.Stats() != twin.Stats() || r.accessSeq != twin.accessSeq {
				t.Fatalf("trackFM %v, access %d: clock %d, %+v, seq %d; guarded %d, %+v, seq %d", trackFM, i,
					r.Clock().Now(), r.Stats(), r.accessSeq, twin.Clock().Now(), twin.Stats(), twin.accessSeq)
			}
			d, td := r.DSByID(0), twin.DSByID(0)
			if d.Stats() != td.Stats() {
				t.Fatalf("trackFM %v, access %d: %+v, guarded %+v", trackFM, i, d.Stats(), td.Stats())
			}
			for k := range d.objs {
				o, to := d.objs[k], td.objs[k]
				if o.state != to.state || o.lastUse != to.lastUse || o.ref != to.ref || o.dirty != to.dirty || o.rect != to.rect {
					t.Fatalf("trackFM %v, access %d: object %d %+v, guarded %+v", trackFM, i, k, o, to)
				}
			}
		}
		if hits := r.MemoHits(); hits < uint64(len(script)/2) {
			t.Fatalf("trackFM %v: only %d of %d accesses hit a memo", trackFM, hits, len(script))
		}
	}
}

// TestMemoHitSetsReference: CLOCK may clear a memo's object's reference
// bit without evicting anything (a degraded scan pins every victim), and
// the memo still stands; its next hit must set the bit again, as a deref
// would.
func TestMemoHitSetsReference(t *testing.T) {
	r, _, base := memoRuntime(t, nil, 2, false)
	var m HitMemo
	if _, err := r.GuardSite(&m, base, false, false, 0, 8); err != nil {
		t.Fatal(err)
	}
	obj := &r.DSByID(0).objs[0]
	obj.ref = false
	if _, err := r.GuardSite(&m, base+8, false, false, 0, 8); err != nil {
		t.Fatal(err)
	}
	if r.SettleHits(); r.MemoHits() != 1 {
		t.Fatal("the memo does not stand")
	}
	if !obj.ref {
		t.Fatal("a settled memo hit left the reference bit clear")
	}
}

// TestPrefetchIssueEndsQuietRepeats: a repeat is quiet only while no
// prefetch issue reaches the structure, since the prefetcher's counters
// then move. A failed miss frees its frame without making anything
// remote, so a later explicit hint issues without evicting — the remote
// generation stands — and the next repeat must reach the prefetcher, and no memo
// may serve it.
func TestPrefetchIssueEndsQuietRepeats(t *testing.T) {
	store := &toggleStore{inner: NewMapStore()}
	r, p, base := memoRuntime(t, store, 4, false)
	for k := uint64(0); k < 3; k++ { // 0 goes remote, clean
		if _, err := r.Guard(base+64*k, false); err != nil {
			t.Fatal(err)
		}
	}
	store.setFailing(true)
	if _, err := r.Guard(base, false); err == nil { // evicts 1, frees 0's frame again
		t.Fatal("the miss did not fail")
	}
	store.setFailing(false)
	var m HitMemo
	if _, err := r.GuardSite(&m, base+2*64, false, false, 0, 8); err != nil {
		t.Fatal(err)
	}
	p.expect(t, 4, "the first touch of object 2 after the failed miss")
	if _, err := r.Guard(base+2*64+8, false); err != nil {
		t.Fatal(err)
	}
	p.expect(t, 4, "a quiet repeat")
	gen := r.remoteGen
	r.Prefetch(base)
	if st := r.DSByID(0).Stats(); st.PrefetchIssued != 1 || r.remoteGen != gen {
		t.Fatalf("the hint did not issue without evicting: %+v, remote generation %d → %d", st, gen, r.remoteGen)
	}
	if _, err := r.GuardSite(&m, base+2*64+16, false, false, 0, 8); err != nil {
		t.Fatal(err)
	}
	if r.SettleHits(); r.MemoHits() != 0 {
		t.Fatal("a memo served a repeat after a prefetch issue")
	}
	p.expect(t, 5, "the repeat after a prefetch issue")
}
