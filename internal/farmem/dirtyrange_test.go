package farmem

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"cards/internal/rdma"
)

// rangeWriteStore is a fake RangeWriteStore. IssueWriteRanges splices
// ONLY the extent bytes into the stored image (read-modify-write), so a
// test passes only if the runtime's extents alone reproduce the full
// local image remotely — the soundness claim of dirtyrange.go.
type rangeWriteStore struct {
	*MapStore
	mu       sync.Mutex
	rangeOps int
	fullOps  int
	lastExts []rdma.Extent
	failNext bool
}

func newRangeWriteStore() *rangeWriteStore {
	return &rangeWriteStore{MapStore: NewMapStore()}
}

func (s *rangeWriteStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.mu.Lock()
	s.fullOps++
	s.mu.Unlock()
	done(s.WriteObj(ds, idx, src))
}

func (s *rangeWriteStore) IssueWriteRanges(ds, idx int, src []byte, exts []rdma.Extent, done func(error)) {
	s.mu.Lock()
	s.rangeOps++
	s.lastExts = append(s.lastExts[:0], exts...)
	fail := s.failNext
	s.failNext = false
	s.mu.Unlock()
	if fail {
		done(errors.New("injected range write failure"))
		return
	}
	cur := make([]byte, len(src))
	s.MapStore.ReadObj(ds, idx, cur) // absent objects read as zeros
	for _, e := range exts {
		copy(cur[e.Off:e.Off+e.Len], src[e.Off:e.Off+e.Len])
	}
	done(s.WriteObj(ds, idx, cur))
}

func (s *rangeWriteStore) counts() (rangeOps, fullOps int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rangeOps, s.fullOps
}

func (s *rangeWriteStore) extents() []rdma.Extent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]rdma.Extent(nil), s.lastExts...)
}

func newRangeRuntime(t *testing.T, store Store, meta DSMeta, objs int) (*Runtime, uint64) {
	t.Helper()
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(2 * meta.ObjSize),
		Store: store, WriteBackBudget: 1 << 20,
		RangeWriteback: true,
	})
	r.RegisterDS(0, meta)
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, int64(objs*meta.ObjSize))
	if err != nil {
		t.Fatal(err)
	}
	return r, addr
}

// evictObj0 touches objects 1 and 2 so the two-object budget forces
// object 0 (the dirty one under test) out through the write-back path.
func evictObj0(t *testing.T, r *Runtime, addr uint64, objSize int) {
	t.Helper()
	for i := 1; i <= 2; i++ {
		if _, err := r.Guard(addr+uint64(i*objSize), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeWriteStoreDetection(t *testing.T) {
	if r := New(Config{Store: newRangeWriteStore()}); r.rwstore == nil || r.rangeWB {
		t.Fatal("without Config.RangeWriteback a range store must be detected (for splices) but ship no dirty ranges")
	}
	if r := New(Config{Store: newRangeWriteStore(), RangeWriteback: true}); !r.rangeWB {
		t.Fatal("RangeWriteback + RangeWriteStore backend should enable the range path")
	}
	if r := New(Config{Store: newSlowWriteStore(0), RangeWriteback: true}); r.rwstore != nil || r.rangeWB {
		t.Fatal("a plain AsyncWriteStore must not be detected as a range store")
	}
}

// TestRangeWriteBackShipsOnlyDirtyExtents: span-bounded writes to two
// element rows of a 1 KiB object must evict as a handful of 8-byte
// extents, and the spliced far-tier image must equal the local one.
func TestRangeWriteBackShipsOnlyDirtyExtents(t *testing.T) {
	const (
		obj  = 1024
		elem = 64
	)
	store := newRangeWriteStore()
	r, addr := newRangeRuntime(t, store, DSMeta{ObjSize: obj, ElemSize: elem}, 3)

	// Write field [8,16) of rows 2 and 5 with exact compiler spans.
	for _, row := range []int{2, 5} {
		p, err := r.GuardSpan(addr+uint64(row*elem+8), true, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WriteWord(p, uint64(0xA0+row)); err != nil {
			t.Fatal(err)
		}
	}
	evictObj0(t, r, addr, obj)

	rangeOps, fullOps := store.counts()
	if rangeOps != 1 || fullOps != 0 {
		t.Fatalf("rangeOps=%d fullOps=%d, want exactly one range write-back", rangeOps, fullOps)
	}
	// Rect rows 2..5 × field [8,16): one extent per row, untouched rows
	// 3 and 4 ride along (identical bytes on both sides — sound).
	exts := store.extents()
	want := []rdma.Extent{{Off: 2*elem + 8, Len: 8}, {Off: 3*elem + 8, Len: 8}, {Off: 4*elem + 8, Len: 8}, {Off: 5*elem + 8, Len: 8}}
	if len(exts) != len(want) {
		t.Fatalf("extents = %v, want %v", exts, want)
	}
	for i := range want {
		if exts[i] != want[i] {
			t.Fatalf("extent %d = %v, want %v", i, exts[i], want[i])
		}
	}
	img := make([]byte, obj)
	if err := store.MapStore.ReadObj(0, 0, img); err != nil {
		t.Fatal(err)
	}
	wantImg := make([]byte, obj)
	for _, row := range []int{2, 5} {
		wantImg[row*elem+8] = byte(0xA0 + row)
	}
	if !bytes.Equal(img, wantImg) {
		t.Fatal("spliced far-tier image differs from the local image")
	}

	st := r.Stats()
	if st.RangeWriteBacks == 0 {
		t.Fatal("RangeWriteBacks counter not advanced")
	}
	if st.RangeBytesSaved != uint64(obj-4*8) {
		t.Fatalf("RangeBytesSaved = %d, want %d", st.RangeBytesSaved, obj-4*8)
	}
}

// TestRangeWriteBackFullRowsMerge: adjacent rows written edge to edge
// collapse into a single contiguous extent.
func TestRangeWriteBackFullRowsMerge(t *testing.T) {
	const (
		obj  = 1024
		elem = 8
	)
	store := newRangeWriteStore()
	r, addr := newRangeRuntime(t, store, DSMeta{ObjSize: obj, ElemSize: elem}, 3)
	for row := 16; row < 24; row++ {
		p, err := r.GuardSpan(addr+uint64(row*elem), true, 0, elem)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.WriteWord(p, uint64(row)); err != nil {
			t.Fatal(err)
		}
	}
	evictObj0(t, r, addr, obj)
	exts := store.extents()
	if len(exts) != 1 || exts[0] != (rdma.Extent{Off: 16 * elem, Len: 8 * elem}) {
		t.Fatalf("extents = %v, want one merged extent {%d %d}", exts, 16*elem, 8*elem)
	}
}

// TestRangeWriteBackCoverageGate: once the rectangle covers more than
// ~60% of the object, the full image ships instead of extents.
func TestRangeWriteBackCoverageGate(t *testing.T) {
	const obj = 256
	store := newRangeWriteStore()
	r, addr := newRangeRuntime(t, store, DSMeta{ObjSize: obj, ElemSize: obj}, 3)
	p, err := r.GuardSpan(addr, true, 0, 200) // 200/256 > 60%
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteWord(p, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	evictObj0(t, r, addr, obj)
	rangeOps, fullOps := store.counts()
	if rangeOps != 0 || fullOps == 0 {
		t.Fatalf("rangeOps=%d fullOps=%d, want full-object fallback past the coverage gate", rangeOps, fullOps)
	}
	if got := storeWord(t, store.MapStore, obj, 0); got != 0xBEEF {
		t.Fatalf("far tier word = %#x, want 0xBEEF", got)
	}
}

// TestSpanlessWriteWithoutFootprintShipsFullObject: a plain write guard
// (no compiler span, no static footprint) must widen the rectangle to
// the whole object.
func TestSpanlessWriteWithoutFootprintShipsFullObject(t *testing.T) {
	const obj = 512
	store := newRangeWriteStore()
	r, addr := newRangeRuntime(t, store, DSMeta{ObjSize: obj, ElemSize: 64}, 3)
	p, err := r.Guard(addr+128, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteWord(p, 42); err != nil {
		t.Fatal(err)
	}
	evictObj0(t, r, addr, obj)
	rangeOps, fullOps := store.counts()
	if rangeOps != 0 || fullOps == 0 {
		t.Fatalf("rangeOps=%d fullOps=%d, want full-object write for a spanless write", rangeOps, fullOps)
	}
}

// TestSpanlessWriteUsesStaticFootprint: without a guard span, the
// structure's compiler-derived write footprint bounds the field range
// for the touched element row.
func TestSpanlessWriteUsesStaticFootprint(t *testing.T) {
	const (
		obj  = 512
		elem = 64
	)
	store := newRangeWriteStore()
	meta := DSMeta{ObjSize: obj, ElemSize: elem, WriteFootprint: [][2]int{{0, 8}}}
	r, addr := newRangeRuntime(t, store, meta, 3)
	p, err := r.Guard(addr+2*elem, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteWord(p, 77); err != nil {
		t.Fatal(err)
	}
	evictObj0(t, r, addr, obj)
	rangeOps, _ := store.counts()
	if rangeOps != 1 {
		t.Fatalf("rangeOps=%d, want the footprint-bounded range path", rangeOps)
	}
	exts := store.extents()
	if len(exts) != 1 || exts[0] != (rdma.Extent{Off: 2 * elem, Len: 8}) {
		t.Fatalf("extents = %v, want [{%d 8}]", exts, 2*elem)
	}
	img := make([]byte, obj)
	if err := store.MapStore.ReadObj(0, 0, img); err != nil {
		t.Fatal(err)
	}
	if img[2*elem] != 77 {
		t.Fatalf("far tier byte at footprint offset = %d, want 77", img[2*elem])
	}
}

// TestFailedRangeWriteReissuedFullObject: a NAKed range write must be
// reissued synchronously as the full staged image — the staging buffer
// keeps the whole object precisely so the replay is idempotent.
func TestFailedRangeWriteReissuedFullObject(t *testing.T) {
	const (
		obj  = 1024
		elem = 64
	)
	store := newRangeWriteStore()
	store.failNext = true
	r, addr := newRangeRuntime(t, store, DSMeta{ObjSize: obj, ElemSize: elem}, 3)
	p, err := r.GuardSpan(addr+uint64(3*elem), true, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteWord(p, 0xDD); err != nil {
		t.Fatal(err)
	}
	evictObj0(t, r, addr, obj)
	if got := r.Stats().WriteBackReissues; got == 0 {
		t.Fatal("failed range write must be reissued synchronously")
	}
	img := make([]byte, obj)
	if err := store.MapStore.ReadObj(0, 0, img); err != nil {
		t.Fatal(err)
	}
	if img[3*elem] != 0xDD {
		t.Fatalf("far tier byte = %#x after reissue, want 0xDD", img[3*elem])
	}
}
