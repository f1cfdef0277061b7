package farmem

import "testing"

// TestRemoveRingEntryHandFollowsSwappedTail pins the swap-delete hand
// semantics: when the hand points at the tail entry and a removal at an
// earlier position swaps that tail entry forward, the hand must follow
// it to the new position — otherwise the moved entry silently loses its
// turn for a full CLOCK lap.
func TestRemoveRingEntryHandFollowsSwappedTail(t *testing.T) {
	r := New(Config{})
	d, _ := r.RegisterDS(0, DSMeta{ObjSize: 64})

	reset := func(hand int) {
		r.ring = []clockEntry{{d, 0, 0}, {d, 1, 0}, {d, 2, 0}, {d, 3, 0}}
		r.hand = hand
	}

	// Hand on the tail, removal earlier: hand follows the moved entry.
	reset(3)
	r.removeRingEntry(1)
	if r.hand != 1 {
		t.Fatalf("hand = %d after tail swap to pos 1, want 1", r.hand)
	}
	if r.ring[1].idx != 3 {
		t.Fatalf("ring[1].idx = %d, want 3 (swapped tail)", r.ring[1].idx)
	}

	// Hand on the tail, removing the tail itself: wrap to 0.
	reset(3)
	r.removeRingEntry(3)
	if r.hand != 0 {
		t.Fatalf("hand = %d after removing the tail under the hand, want 0", r.hand)
	}

	// Hand past the ring (post-increment state): wrap to 0.
	reset(4)
	r.removeRingEntry(0)
	if r.hand != 0 {
		t.Fatalf("hand = %d with hand past the ring, want 0", r.hand)
	}

	// Hand before the removal point: untouched.
	reset(1)
	r.removeRingEntry(2)
	if r.hand != 1 {
		t.Fatalf("hand = %d with hand before removal, want 1", r.hand)
	}
}

// TestClockOrderPreservedAcrossFallbackEviction is the end-to-end
// regression: a deref-scope fallback eviction removes a ring entry
// while the hand rests on the tail. The swapped-forward tail entry must
// be the next scanned (and, with its reference bit clear, the next
// victim); the pre-fix code skipped it and evicted the wrong object.
func TestClockOrderPreservedAcrossFallbackEviction(t *testing.T) {
	const obj = 64
	r := New(Config{PinnedBudget: 1 << 16, RemotableBudget: 4 * obj})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 4*obj)
	if err != nil {
		t.Fatal(err)
	}
	d := r.DSByID(0)

	// Localize 0,1,2,3 (ring order), then re-touch 0,2,3 so object 1 is
	// the least recently used while everything stays inside the
	// deref-scope window — forcing the fallback eviction path.
	for _, i := range []int{0, 1, 2, 3, 0, 2, 3} {
		if _, err := r.Guard(addr+uint64(i*obj), true); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.ring); n != 4 {
		t.Fatalf("ring has %d entries, want 4", n)
	}

	// Park the hand so the scan ends exactly on the tail entry: from
	// start position 2, the 3*len+1 = 13 protected steps leave hand = 3.
	r.hand = 2
	if err := r.evictOne(); err != nil {
		t.Fatal(err)
	}
	if d.objs[1].state != objRemote {
		t.Fatalf("fallback eviction took obj state %v, want obj 1 (LRU) evicted", d.objs[1].state)
	}
	if r.hand != 1 {
		t.Fatalf("hand = %d after tail entry swapped to pos 1, want 1", r.hand)
	}

	// Age everything out of the deref-scope window and clear second
	// chances (the fallback scan already consumed them). The next victim
	// must be the swapped tail entry — object 3 — not object 0, which the
	// pre-fix hand (wrapped to 0) would have scanned first.
	r.accessSeq += 100
	if err := r.evictOne(); err != nil {
		t.Fatal(err)
	}
	if d.objs[3].state != objRemote {
		t.Fatalf("post-swap eviction skipped the moved tail entry (obj 3 state %v)", d.objs[3].state)
	}
	if d.objs[0].state != objLocal {
		t.Fatal("obj 0 evicted out of turn: CLOCK order perturbed by swap-delete")
	}
}

// TestClockFallbackFollowsSwapDelete: removing a stale entry mid-scan
// swap-deletes the ring's tail into its slot. When the tail is the
// fallback victim (every resident object deref-scope protected), the
// fallback must follow it there; left at the old index it points past
// the ring and the allocator finds "nothing evictable".
func TestClockFallbackFollowsSwapDelete(t *testing.T) {
	const obj = 64
	r := New(Config{PinnedBudget: 1 << 16, RemotableBudget: 2 * obj})
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 2*obj)
	if err != nil {
		t.Fatal(err)
	}
	d := r.DSByID(0)
	for i := range 2 {
		if _, err := r.Guard(addr+uint64(i*obj), false); err != nil {
			t.Fatal(err)
		}
	}
	// Object 0's entry goes stale (as a failed prefetch's does at the
	// hand); object 1, at the tail, is protected and has no second
	// chance left. The scan meets 1 first, then the stale 0.
	r.release(d, &d.objs[0])
	d.objs[1].ref = false
	r.hand = 1
	if err := r.evictOne(); err != nil {
		t.Fatal(err)
	}
	if d.objs[1].state != objRemote || len(r.ring) != 0 {
		t.Fatalf("obj 1 state %v, %d ring entries: want the fallback evicted and the ring empty", d.objs[1].state, len(r.ring))
	}
}
