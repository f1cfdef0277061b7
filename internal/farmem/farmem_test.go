package farmem

import (
	"testing"
	"testing/quick"

	"cards/internal/netsim"
)

func TestAddrEncoding(t *testing.T) {
	a := MakeAddr(5, 0x123456)
	if !IsTagged(a) {
		t.Fatal("tagged address not recognized")
	}
	if DSOf(a) != 5 {
		t.Fatalf("DSOf = %d, want 5", DSOf(a))
	}
	if OffOf(a) != 0x123456 {
		t.Fatalf("OffOf = %#x", OffOf(a))
	}
	if IsTagged(0x1000) {
		t.Fatal("plain address misdetected as tagged")
	}
}

func TestAddrEncodingProperty(t *testing.T) {
	f := func(dsRaw uint16, offRaw uint64) bool {
		ds := int(dsRaw) & MaxDS
		off := offRaw & OffMask
		a := MakeAddr(ds, off)
		return IsTagged(a) && DSOf(a) == ds && OffOf(a) == off
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestArenaAllocFree(t *testing.T) {
	a := NewArena(1 << 12)
	o1 := a.Alloc(64)
	o2 := a.Alloc(64)
	if o1 == 0 || o1 == o2 {
		t.Fatalf("offsets: %d %d", o1, o2)
	}
	a.Write8(o1, 0xdeadbeef)
	if a.Read8(o1) != 0xdeadbeef {
		t.Fatal("readback failed")
	}
	a.Free(o1, 64)
	o3 := a.Alloc(64)
	if o3 != o1 {
		t.Fatalf("free list not reused: %d vs %d", o3, o1)
	}
	if a.Read8(o3) != 0 {
		t.Fatal("reused frame not zeroed")
	}
}

func TestArenaFloats(t *testing.T) {
	a := NewArena(256)
	off := a.Alloc(8)
	a.WriteF(off, 3.25)
	if got := a.ReadF(off); got != 3.25 {
		t.Fatalf("ReadF = %v", got)
	}
}

func TestArenaBounds(t *testing.T) {
	a := NewArena(256)
	off := a.Alloc(16)
	if !a.InBounds(off, 16) {
		t.Fatal("allocated region out of bounds")
	}
	if a.InBounds(0, 8) {
		t.Fatal("null page should be out of bounds")
	}
	if a.InBounds(off, 1<<20) {
		t.Fatal("overlong region should be out of bounds")
	}
}

func TestArenaGrowth(t *testing.T) {
	a := NewArena(64)
	var offs []uint64
	for i := 0; i < 100; i++ {
		offs = append(offs, a.Alloc(128))
	}
	for i, off := range offs {
		a.Write8(off, uint64(i))
	}
	for i, off := range offs {
		if a.Read8(off) != uint64(i) {
			t.Fatalf("growth corrupted data at %d", i)
		}
	}
}

// TestArenaBumpAllocIsAmortized pins the cost of the per-node pinned
// allocations a list build makes: 100k bump allocations reallocate the
// slab O(log n) times (it used to be once per call, O(n^2) bytes
// copied), every fresh region reads as zero, and data written before a
// growth survives it.
func TestArenaBumpAllocIsAmortized(t *testing.T) {
	const n, size = 100_000, 24
	a := NewArena(64)
	grows, lastCap := 0, cap(a.mem)
	offs := make([]uint64, n)
	for i := range offs {
		off := a.Alloc(size)
		if c := cap(a.mem); c != lastCap {
			grows, lastCap = grows+1, c
		}
		for w := uint64(0); w < size; w += 8 {
			if a.Read8(off+w) != 0 {
				t.Fatalf("alloc %d: fresh region not zero at +%d", i, w)
			}
		}
		a.Write8(off, uint64(i)+1)
		a.Write8(off+16, ^uint64(i))
		offs[i] = off
	}
	// 64 B doubling to n*size bytes: log2(2.4 MB / 64 B) is about 16.
	if grows > 20 {
		t.Fatalf("%d bump allocations reallocated the slab %d times, want O(log n)", n, grows)
	}
	for i, off := range offs {
		if a.Read8(off) != uint64(i)+1 || a.Read8(off+16) != ^uint64(i) {
			t.Fatalf("alloc %d lost its contents across growth", i)
		}
	}
	// A recycled frame is cleared even though the slab never shrinks.
	a.Free(offs[7], size)
	if off := a.Alloc(size); off != offs[7] || a.Read8(off) != 0 || a.Read8(off+16) != 0 {
		t.Fatalf("recycled frame %d not zeroed", off)
	}
}

func newTestRuntime(pinned, remotable uint64) *Runtime {
	return New(Config{PinnedBudget: pinned, RemotableBudget: remotable})
}

func TestRegisterDS(t *testing.T) {
	r := newTestRuntime(1<<20, 1<<20)
	d, err := r.RegisterDS(0, DSMeta{Name: "a", ObjSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.ObjSize != 128 {
		t.Fatalf("ObjSize = %d, want rounded to 128", d.Meta.ObjSize)
	}
	if _, err := r.RegisterDS(5, DSMeta{}); err == nil {
		t.Fatal("non-dense registration should fail")
	}
	if _, err := r.RegisterDS(1, DSMeta{}); err != nil {
		t.Fatal(err)
	}
	if r.NumDS() != 2 {
		t.Fatalf("NumDS = %d", r.NumDS())
	}
	if r.DSByID(7) != nil || r.DSByID(-1) != nil {
		t.Fatal("DSByID out of range should be nil")
	}
}

func TestPinnedAllocationUntagged(t *testing.T) {
	r := newTestRuntime(1<<20, 1<<20)
	r.RegisterDS(0, DSMeta{Name: "pinned", ObjSize: 4096})
	r.SetPlacement(0, PlacePinned)
	addr, err := r.DSAlloc(0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if IsTagged(addr) {
		t.Fatal("pinned allocation returned tagged address")
	}
	// Guard falls through on the fast path.
	p, err := r.Guard(addr, false)
	if err != nil || p != addr {
		t.Fatalf("Guard = %#x, %v", p, err)
	}
	if r.Stats().FastPathHits != 1 {
		t.Fatalf("FastPathHits = %d", r.Stats().FastPathHits)
	}
	if !r.AllLocal([]int{0}) {
		t.Fatal("pinned DS should report all-local")
	}
}

func TestRemotableAllocationTagged(t *testing.T) {
	r := newTestRuntime(1<<20, 1<<20)
	r.RegisterDS(0, DSMeta{Name: "rem", ObjSize: 4096})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if !IsTagged(addr) || DSOf(addr) != 0 {
		t.Fatalf("addr = %#x", addr)
	}
	if r.AllLocal([]int{0}) {
		t.Fatal("remotable DS must fail all-local")
	}
	// Write then read through guards.
	p, err := r.Guard(addr, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteWord(p, 42); err != nil {
		t.Fatal(err)
	}
	p2, err := r.Guard(addr, false)
	if err != nil {
		t.Fatal(err)
	}
	v, err := r.ReadWord(p2)
	if err != nil || v != 42 {
		t.Fatalf("read = %d, %v", v, err)
	}
	d := r.DSByID(0)
	st := d.Stats()
	if st.ColdFaults != 1 {
		t.Fatalf("ColdFaults = %d, want 1 (first touch)", st.ColdFaults)
	}
	if st.Hits != 1 {
		t.Fatalf("Hits = %d, want 1 (second access)", st.Hits)
	}
}

func TestEvictionRoundTrip(t *testing.T) {
	// Budget of 2 objects; touch 4 objects; early data must survive
	// eviction and come back over the "network".
	obj := 4096
	r := newTestRuntime(1<<20, uint64(2*obj))
	r.RegisterDS(0, DSMeta{Name: "d", ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, int64(4*obj))
	if err != nil {
		t.Fatal(err)
	}
	// Write a distinct value into each object.
	for i := 0; i < 4; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatalf("obj %d: %v", i, err)
		}
		if err := r.WriteWord(p, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.DSByID(0).Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding budget")
	}
	if st.WriteBacks == 0 {
		t.Fatal("dirty evictions must write back")
	}
	// Read everything back.
	for i := 0; i < 4; i++ {
		p, err := r.Guard(addr+uint64(i*obj), false)
		if err != nil {
			t.Fatalf("re-read obj %d: %v", i, err)
		}
		v, err := r.ReadWord(p)
		if err != nil || v != uint64(100+i) {
			t.Fatalf("obj %d = %d, %v; want %d", i, v, err, 100+i)
		}
	}
	if r.DSByID(0).Stats().Misses == 0 {
		t.Fatal("re-reads should miss and fetch remotely")
	}
	if r.Stats().RemoteFetches == 0 {
		t.Fatal("global RemoteFetches should count")
	}
}

func TestRuntimeOverrideSpill(t *testing.T) {
	// Pinned hint, but pinned budget too small: the runtime must
	// override and remote the structure (paper §4.2).
	r := newTestRuntime(1<<12, 1<<20)
	r.RegisterDS(0, DSMeta{Name: "big", ObjSize: 4096})
	r.SetPlacement(0, PlacePinned)
	a1, err := r.DSAlloc(0, 1<<12) // fits pinned exactly
	if err != nil {
		t.Fatal(err)
	}
	if IsTagged(a1) {
		t.Fatal("first allocation should be pinned")
	}
	a2, err := r.DSAlloc(0, 1<<12) // exceeds pinned budget
	if err != nil {
		t.Fatal(err)
	}
	if !IsTagged(a2) {
		t.Fatal("overflow allocation should be remoted")
	}
	if !r.DSByID(0).Spilled() {
		t.Fatal("DS should be marked spilled")
	}
	if r.AllLocal([]int{0}) {
		t.Fatal("spilled DS must fail all-local")
	}
	if r.Stats().SpilledDS != 1 {
		t.Fatalf("SpilledDS = %d", r.Stats().SpilledDS)
	}
}

func TestLinearPlacement(t *testing.T) {
	// Linear: pinned while pinned memory lasts, remotable afterwards.
	r := newTestRuntime(2*4096, 1<<20)
	r.RegisterDS(0, DSMeta{Name: "l", ObjSize: 4096})
	// default placement is PlaceLinear
	var tagged, untagged int
	for i := 0; i < 4; i++ {
		a, err := r.DSAlloc(0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if IsTagged(a) {
			tagged++
		} else {
			untagged++
		}
	}
	if untagged != 2 || tagged != 2 {
		t.Fatalf("untagged/tagged = %d/%d, want 2/2", untagged, tagged)
	}
}

func TestGuardCostAccounting(t *testing.T) {
	r := newTestRuntime(1<<20, 1<<20)
	r.RegisterDS(0, DSMeta{ObjSize: 4096})
	r.SetPlacement(0, PlaceRemotable)
	addr, _ := r.DSAlloc(0, 4096)
	m := r.Model()

	// Cold fault (materialize): no network.
	before := r.Clock().Now()
	r.Guard(addr, true)
	coldCost := r.Clock().Now() - before
	if coldCost < m.CustodyCheck+m.DerefLocalWrite {
		t.Fatalf("cold fault cost %d too small", coldCost)
	}
	if coldCost > m.RemoteRTT {
		t.Fatalf("cold fault cost %d should not include a round trip", coldCost)
	}

	// Warm hit: custody + local deref only.
	before = r.Clock().Now()
	r.Guard(addr, false)
	hitCost := r.Clock().Now() - before
	want := m.CustodyCheck + m.DerefLocalRead
	if hitCost != want {
		t.Fatalf("hit cost = %d, want %d", hitCost, want)
	}

	// Pinned fast path: custody check only.
	r.RegisterDS(1, DSMeta{ObjSize: 4096})
	r.SetPlacement(1, PlacePinned)
	pa, _ := r.DSAlloc(1, 64)
	before = r.Clock().Now()
	r.Guard(pa, false)
	if got := r.Clock().Now() - before; got != m.CustodyCheck {
		t.Fatalf("fast path cost = %d, want %d", got, m.CustodyCheck)
	}
}

func TestRemoteMissCostMatchesTable1(t *testing.T) {
	obj := 4096
	r := newTestRuntime(1<<20, uint64(2*obj))
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, _ := r.DSAlloc(0, int64(4*obj))
	// Touch all 4 objects (evicting the first two), then re-read object 0.
	for i := 0; i < 4; i++ {
		if _, err := r.Guard(addr+uint64(i*obj), true); err != nil {
			t.Fatal(err)
		}
	}
	before := r.Clock().Now()
	if _, err := r.Guard(addr, false); err != nil {
		t.Fatal(err)
	}
	cost := r.Clock().Now() - before
	m := r.Model()
	min := m.RemoteRTT
	max := m.RemoteRTT + m.TransferCycles(obj) + m.DerefLocalRead + m.CustodyCheck + 4*m.EvictObject + 10000
	if cost < min || cost > max {
		t.Fatalf("remote fault cost = %d, want in [%d, %d] (~59K, Table 1)", cost, min, max)
	}
}

func TestUnsafeAccessDetected(t *testing.T) {
	r := newTestRuntime(1<<20, 1<<20)
	r.RegisterDS(0, DSMeta{ObjSize: 4096})
	r.SetPlacement(0, PlaceRemotable)
	addr, _ := r.DSAlloc(0, 64)
	if _, err := r.ReadWord(addr); err == nil {
		t.Fatal("direct read of tagged address must fail")
	}
	if err := r.WriteWord(addr, 1); err == nil {
		t.Fatal("direct write of tagged address must fail")
	}
}

func TestBadAddresses(t *testing.T) {
	r := newTestRuntime(1<<20, 1<<20)
	r.RegisterDS(0, DSMeta{ObjSize: 4096})
	r.SetPlacement(0, PlaceRemotable)
	r.DSAlloc(0, 64)
	if _, err := r.Deref(MakeAddr(3, 0), false); err == nil {
		t.Fatal("unknown DS should error")
	}
	if _, err := r.Deref(MakeAddr(0, 1<<20), false); err == nil {
		t.Fatal("offset beyond extent should error")
	}
	if _, err := r.ReadWord(4); err == nil {
		t.Fatal("below-arena read should error")
	}
}

func TestPrefetchLifecycle(t *testing.T) {
	obj := 4096
	r := newTestRuntime(1<<20, uint64(16*obj))
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, _ := r.DSAlloc(0, int64(16*obj))
	// Write objects 0..7 then force them remote by touching 8..15.
	for i := 0; i < 16; i++ {
		p, err := r.Guard(addr+uint64(i*obj), true)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(p, uint64(i))
	}
	d := r.DSByID(0)
	// Find a remote object and prefetch it.
	var remoteIdx = -1
	for i := range d.objs {
		if d.objs[i].state == objRemote {
			remoteIdx = i
			break
		}
	}
	if remoteIdx < 0 {
		t.Skip("no remote object despite pressure") // shouldn't happen
	}
	r.PrefetchObj(d, remoteIdx)
	if d.objs[remoteIdx].state != objInFlight {
		t.Fatal("prefetch did not mark in-flight")
	}
	if d.Stats().PrefetchIssued != 1 {
		t.Fatal("PrefetchIssued not counted")
	}
	// Demand access consumes the prefetch.
	p, err := r.Guard(addr+uint64(remoteIdx*obj), false)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := r.ReadWord(p)
	if v != uint64(remoteIdx) {
		t.Fatalf("prefetched data = %d, want %d", v, remoteIdx)
	}
	if d.Stats().PrefetchHits != 1 {
		t.Fatal("PrefetchHits not counted")
	}
	// Prefetching an already-local object is a no-op.
	r.PrefetchObj(d, remoteIdx)
	if d.Stats().PrefetchIssued != 1 {
		t.Fatal("duplicate prefetch issued")
	}
}

func TestExplicitPrefetchHint(t *testing.T) {
	obj := 4096
	r := newTestRuntime(1<<20, uint64(4*obj))
	r.RegisterDS(0, DSMeta{ObjSize: obj})
	r.SetPlacement(0, PlaceRemotable)
	addr, _ := r.DSAlloc(0, int64(4*obj))
	r.Prefetch(addr)           // uninit: no-op but harmless
	r.Prefetch(0x1000)         // untagged: no-op
	r.Prefetch(MakeAddr(9, 0)) // unknown DS: no-op
	if r.DSByID(0).Stats().PrefetchIssued != 0 {
		t.Fatal("no prefetch should have been issued")
	}
}

func TestTrackFMCostProfile(t *testing.T) {
	r := New(Config{PinnedBudget: 1 << 20, RemotableBudget: 1 << 20, TrackFMGuards: true})
	r.RegisterDS(0, DSMeta{ObjSize: 4096})
	r.SetPlacement(0, PlaceRemotable)
	addr, _ := r.DSAlloc(0, 4096)
	r.Guard(addr, true) // cold
	m := r.Model()
	before := r.Clock().Now()
	r.Guard(addr, false)
	cost := r.Clock().Now() - before
	if cost != m.TrackFMGuardLocalRead {
		t.Fatalf("TrackFM local read guard = %d, want %d", cost, m.TrackFMGuardLocalRead)
	}
	before = r.Clock().Now()
	r.Guard(addr, true)
	cost = r.Clock().Now() - before
	if cost != m.TrackFMGuardLocalWrite {
		t.Fatalf("TrackFM local write guard = %d, want %d", cost, m.TrackFMGuardLocalWrite)
	}
}

func TestMapStore(t *testing.T) {
	s := NewMapStore()
	buf := make([]byte, 8)
	if err := s.ReadObj(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("missing object should read as zeros")
		}
	}
	s.WriteObj(0, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	s.ReadObj(0, 0, buf)
	if buf[0] != 1 || buf[7] != 8 {
		t.Fatalf("roundtrip = %v", buf)
	}
	if s.Objects() != 1 {
		t.Fatalf("Objects = %d", s.Objects())
	}
}

// Property: any sequence of guarded writes followed by guarded reads
// returns the written values, regardless of eviction pressure.
func TestReadYourWritesUnderPressureProperty(t *testing.T) {
	f := func(seed int64, nObjsRaw, budgetRaw uint8) bool {
		nObjs := int(nObjsRaw%32) + recentWindow + 2
		budgetObjs := int(budgetRaw%16) + recentWindow + 2
		obj := 256
		r := newTestRuntime(1<<20, uint64(budgetObjs*obj))
		r.RegisterDS(0, DSMeta{ObjSize: obj})
		r.SetPlacement(0, PlaceRemotable)
		addr, err := r.DSAlloc(0, int64(nObjs*obj))
		if err != nil {
			return false
		}
		for i := 0; i < nObjs; i++ {
			p, err := r.Guard(addr+uint64(i*obj), true)
			if err != nil {
				return false
			}
			if r.WriteWord(p, uint64(seed)+uint64(i)) != nil {
				return false
			}
		}
		for i := nObjs - 1; i >= 0; i-- {
			p, err := r.Guard(addr+uint64(i*obj), false)
			if err != nil {
				return false
			}
			v, err := r.ReadWord(p)
			if err != nil || v != uint64(seed)+uint64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeMonotone(t *testing.T) {
	r := newTestRuntime(1<<16, 1<<16)
	r.RegisterDS(0, DSMeta{ObjSize: 256})
	addr, _ := r.DSAlloc(0, 1<<14)
	last := r.Clock().Now()
	for i := 0; i < 100; i++ {
		if IsTagged(addr) {
			r.Guard(addr+uint64(i*8), i%2 == 0)
		}
		now := r.Clock().Now()
		if now < last {
			t.Fatal("clock went backwards")
		}
		last = now
	}
	_ = netsim.Seconds(last, netsim.DefaultHz)
}
