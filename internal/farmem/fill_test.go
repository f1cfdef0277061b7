package farmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// readCountStore is rangeWriteStore counting its synchronous reads.
type readCountStore struct {
	*rangeWriteStore
	reads int
}

func (s *readCountStore) ReadObj(ds, idx int, dst []byte) error {
	s.reads++
	return s.rangeWriteStore.ReadObj(ds, idx, dst)
}

// unreadRuntime is asyncFaultRuntime with room to stage write-backs:
// two 4 KiB frames over eight objects.
func unreadRuntime(t *testing.T, store Store) (*Runtime, uint64) {
	t.Helper()
	r := New(Config{PinnedBudget: 1 << 20, RemotableBudget: 2 * 4096, Store: store, WriteBackBudget: 1 << 20})
	if _, err := r.RegisterDS(0, DSMeta{Name: "d", ObjSize: 4096}); err != nil {
		t.Fatal(err)
	}
	r.SetPlacement(0, PlaceRemotable)
	addr, err := r.DSAlloc(0, 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	return r, addr
}

// seedObjects writes word 0 of objects 0..n-1 to 1000+i and settles
// every write-back, so objects 0..n-3 are remote with nothing staged.
func seedObjects(t *testing.T, r *Runtime, addr uint64, n int) {
	t.Helper()
	writeWorkingSet(t, r, addr, n)
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
}

func storeOnce(t *testing.T, r *Runtime, addr, v uint64) {
	t.Helper()
	p, err := r.GuardStore(addr, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(p, v)
}

// TestFillHandsOutFrameBeforeBytes: a store-once miss over a
// RangeWriteStore returns the frame without reading anything, charges
// exactly what the synchronous miss of a write guard charges, logs later
// store-once stores (merging touching ones) without reading, observes on
// a full log, and keeps every logged store over the base when ObjectWord
// or a read guard observes it.
func TestFillHandsOutFrameBeforeBytes(t *testing.T) {
	store := &readCountStore{rangeWriteStore: newRangeWriteStore()}
	r, addr := unreadRuntime(t, store)
	twin, taddr := unreadRuntime(t, newSlowWriteStore(0))
	seedObjects(t, r, addr, 6) // objs 0..3 evicted to the store
	seedObjects(t, twin, taddr, 6)
	d := r.DSByID(0)
	reads := store.reads

	storeOnce(t, r, addr+16, 77)
	tp, err := twin.GuardSpan(taddr+16, true, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	twin.WriteWord(tp, 77)
	obj := &d.objs[0]
	if obj.state != objLocal || obj.log == nil || store.reads != reads {
		t.Fatalf("after the miss: state %v, log %v, %d reads; want a local, unread object", obj.state, obj.log != nil, store.reads-reads)
	}
	if r.Clock().Now() != twin.Clock().Now() || r.Stats() != twin.Stats() || d.Stats() != twin.DSByID(0).Stats() {
		t.Fatalf("the miss charged differently from a synchronous one:\n clock %d, %+v\ntwin  %d, %+v",
			r.Clock().Now(), r.Stats(), twin.Clock().Now(), twin.Stats())
	}
	// Touching or overlapping stores extend the last extent.
	storeOnce(t, r, addr+8, 78)
	storeOnce(t, r, addr+24, 79)
	storeOnce(t, r, addr+8, 81)
	if got := obj.log.exts; len(got) != 1 || got[0] != (rdma.Extent{Off: 8, Len: 24}) {
		t.Fatalf("log %v, want one merged extent {8 24}", got)
	}
	// Stores 16 bytes apart do not touch: one extent each, to the cap.
	for k := 3; len(obj.log.exts) < storeLogCap; k++ {
		storeOnce(t, r, addr+uint64(16*k), uint64(100+k))
	}
	if store.reads != reads {
		t.Fatalf("%d reads before anything observed the object", store.reads-reads)
	}
	// A full log observes the object before the next store.
	storeOnce(t, r, addr+4000, 999)
	if obj.log != nil || store.reads != reads+1 {
		t.Fatalf("a store-once guard on a full log: log %v, %d reads; want observed with one read", obj.log != nil, store.reads-reads)
	}
	want := map[int]uint64{0: 1000, 8: 81, 16: 77, 24: 79, 4000: 999}
	for k := 3; k <= storeLogCap+1; k++ {
		want[16*k] = uint64(100 + k)
	}
	for off, v := range want {
		if got, ok := r.ObjectWord(d, 0, off); !ok || got != v {
			t.Fatalf("word at %d = %d, %v; want %d", off, got, ok, v)
		}
	}

	// Object 1: observed by ObjectWord.
	storeOnce(t, r, addr+4096+16, 55)
	if v, ok := r.ObjectWord(d, 1, 0); !ok || v != 1001 || d.objs[1].log != nil {
		t.Fatalf("ObjectWord on an unread object = %d, %v (log %v); want 1001 observed", v, ok, d.objs[1].log != nil)
	}
	// Object 2: observed by a read guard.
	storeOnce(t, r, addr+2*4096+24, 66)
	for off, v := range map[uint64]uint64{0: 1002, 24: 66} {
		g, err := r.Guard(addr+2*4096+off, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := r.ReadWord(g); got != v {
			t.Fatalf("obj 2 word at %d = %d, want %d", off, got, v)
		}
	}
}

// TestFillEvictedUnreadShipsItsLog: an unread object evicted before
// anything observes it ships its log as one splice of sorted, merged
// extents and is never read, and one re-localized from that splice
// while it is staged is unread again, its log the staged extents; an
// observer then sees the base and every store.
func TestFillEvictedUnreadShipsItsLog(t *testing.T) {
	store := &readCountStore{rangeWriteStore: newRangeWriteStore()}
	r, addr := unreadRuntime(t, store)
	seedObjects(t, r, addr, 6)
	reads := store.reads
	storeOnce(t, r, addr+48, 5)
	storeOnce(t, r, addr+16, 3)
	storeOnce(t, r, addr+24, 4)
	for i := 4; i <= 5; i++ { // evicts object 0
		if _, err := r.Guard(addr+uint64(i*4096), false); err != nil {
			t.Fatal(err)
		}
	}
	d := r.DSByID(0)
	if d.objs[0].state != objRemote || store.reads != reads {
		t.Fatalf("object 0 %v after %d reads; want remote and never read", d.objs[0].state, store.reads-reads)
	}
	if ops, _ := store.counts(); ops != 1 {
		t.Fatalf("%d range writes, want one splice", ops)
	}
	wantExts := []rdma.Extent{{Off: 16, Len: 16}, {Off: 48, Len: 8}}
	if got := store.extents(); len(got) != 2 || got[0] != wantExts[0] || got[1] != wantExts[1] {
		t.Fatalf("splice extents %v, want %v", got, wantExts)
	}
	// The splice is still staged: a store-once miss re-localizes from it.
	storeOnce(t, r, addr+64, 6)
	if l := d.objs[0].log; l == nil || len(l.exts) != 3 || store.reads != reads {
		t.Fatalf("re-localized from a staged splice: log %v, %d reads; want three extents and no read", l, store.reads-reads)
	}
	for off, v := range map[uint64]uint64{0: 1000, 16: 3, 24: 4, 48: 5, 64: 6} {
		g, err := r.Guard(addr+off, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := r.ReadWord(g); got != v {
			t.Fatalf("word at %d = %d, want %d", off, got, v)
		}
	}
}

// TestFillFailedBaseReadTrapsAtObserver: when an unread object's base
// read fails, the store-once guard itself has succeeded, the observer
// gets an error naming the object and wrapping the read error, and the
// object keeps its frame and log, so a later observer whose read
// succeeds sees the remote bytes and the store.
func TestFillFailedBaseReadTrapsAtObserver(t *testing.T) {
	store := &testutil.FailingAsync{ObjStore: NewMapStore()}
	r, addr := unreadRuntime(t, store)
	seedObjects(t, r, addr, 6)
	store.SyncFails = true
	q, err := r.GuardStore(addr+8, 0, 8)
	if err != nil {
		t.Fatalf("store-once guard: %v", err)
	}
	r.WriteWord(q, 77)
	_, err = r.Guard(addr, false)
	if !errors.Is(err, testutil.ErrInjected) || !strings.Contains(err.Error(), "unread ds0[0]: base read") {
		t.Fatalf("observer error = %v, want an unread-base error wrapping the injected one", err)
	}
	if obj := &r.DSByID(0).objs[0]; obj.state != objLocal || obj.log == nil {
		t.Fatalf("failed base read: state %v, log %v; want still local and unread", obj.state, obj.log != nil)
	}
	store.SyncFails = false
	for off, v := range map[uint64]uint64{0: 1000, 8: 77} {
		g, err := r.Guard(addr+off, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := r.ReadWord(g); got != v {
			t.Fatalf("word at %d = %d, want %d", off, got, v)
		}
	}
}

// TestFillFailedSpliceIsRebuilt: a splice that fails — lost, or applied
// but unacknowledged — is reissued as the whole image rebuilt from the
// base, never as its extents again.
func TestFillFailedSpliceIsRebuilt(t *testing.T) {
	store := &testutil.FailingAsync{ObjStore: NewMapStore(), SpliceFails: true}
	r, addr := unreadRuntime(t, store)
	seedObjects(t, r, addr, 6)
	storeOnce(t, r, addr+8, 77)      // the first splice is lost
	storeOnce(t, r, addr+4096+8, 78) // the second is applied, then fails
	for i := 2; i <= 3; i++ {        // evicts objects 0 and 1
		if _, err := r.Guard(addr+uint64(i*4096), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	if n := r.Stats().WriteBackReissues; n != 2 || store.Splices() != 2 {
		t.Fatalf("%d reissues of %d splices; want each splice rebuilt once", n, store.Splices())
	}
	img, want := make([]byte, 4096), make([]byte, 4096)
	for idx := 0; idx <= 1; idx++ {
		store.ObjStore.ReadObj(0, idx, img)
		binary.LittleEndian.PutUint64(want, uint64(1000+idx))
		binary.LittleEndian.PutUint64(want[8:], uint64(77+idx))
		if !bytes.Equal(img, want) {
			t.Fatalf("object %d: the rebuilt image differs from base + store", idx)
		}
	}
}

// TestFillLateSplicesReadNothing: store-once stores over a store whose
// completions arrive late, into room for two frames, so almost every
// unread object is evicted before anything reads it: no read reaches
// the store for them, none overlaps a write of its object, and every
// object still reads back its remote words and its stores.
func TestFillLateSplicesReadNothing(t *testing.T) {
	store := testutil.NewLateAsync(NewMapStore(), 200*time.Microsecond, 1)
	r, addr := unreadRuntime(t, store)
	defer func() { r.Close(); store.Wait() }()
	seedObjects(t, r, addr, 8)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 8; i++ {
			storeOnce(t, r, addr+uint64(i*4096+8*round), uint64(round*100+i))
		}
	}
	if store.Reads() != 0 || store.Splices() == 0 {
		t.Fatalf("%d async reads, %d splices; want splices and no read", store.Reads(), store.Splices())
	}
	for i := 0; i < 8; i++ {
		for k := 0; k <= 3; k++ {
			want := uint64(1000 + i)
			if k > 0 {
				want = uint64(k*100 + i)
			}
			g, err := r.Guard(addr+uint64(i*4096+8*k), false)
			if err != nil {
				t.Fatal(err)
			}
			if v, _ := r.ReadWord(g); v != want {
				t.Fatalf("obj %d word %d = %d, want %d", i, k, v, want)
			}
		}
	}
	if n := store.Overlaps(); n != 0 {
		t.Fatalf("%d reads overlapped a write of their object", n)
	}
}
