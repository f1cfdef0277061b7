package farmem

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cards/internal/testutil"
)

// gateStore is an AsyncStore whose async reads complete only when the
// test calls open: until then a filling object's bytes have not arrived.
type gateStore struct {
	*MapStore
	held []func()
}

func (s *gateStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.held = append(s.held, func() { done(s.ReadObj(ds, idx, dst)) })
}

func (s *gateStore) open() {
	for _, f := range s.held {
		f()
	}
	s.held = nil
}

// TestFillHandsOutFrameBeforeBytes: a store-once miss over an AsyncStore
// returns the frame with the read still out, charges exactly what the
// synchronous miss of a write guard charges, logs later store-once
// stores without waiting, settles on a full log, and keeps every logged
// store over the payload when ObjectWord or a read guard settles it.
func TestFillHandsOutFrameBeforeBytes(t *testing.T) {
	gate := &gateStore{MapStore: NewMapStore()}
	r, addr := asyncFaultRuntime(t, gate)
	twin, taddr := asyncFaultRuntime(t, NewMapStore())
	writeWorkingSet(t, r, addr, 6) // objs 0..3 evicted to the store
	writeWorkingSet(t, twin, taddr, 6)
	d := r.DSByID(0)

	p, err := r.GuardStore(addr+8, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(p, 77)
	tp, err := twin.GuardSpan(taddr+8, true, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	twin.WriteWord(tp, 77)
	obj := &d.objs[0]
	if obj.state != objLocal || obj.pending == nil || len(gate.held) != 1 {
		t.Fatalf("after the miss: state %v, pending %v, %d reads out; want a local, filling object", obj.state, obj.pending != nil, len(gate.held))
	}
	if r.Clock().Now() != twin.Clock().Now() || r.Stats() != twin.Stats() || d.Stats() != twin.DSByID(0).Stats() {
		t.Fatalf("the miss charged differently from a synchronous one:\n clock %d, %+v\ntwin  %d, %+v",
			r.Clock().Now(), r.Stats(), twin.Clock().Now(), twin.Stats())
	}
	// Store-once hits append to the log without waiting (the read is
	// still out: a wait would block forever).
	for k := 2; k <= storeLogCap; k++ {
		q, err := r.GuardStore(addr+uint64(8*k), 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		r.WriteWord(q, uint64(100+k))
	}
	if obj.pending == nil || len(obj.pending.stores) != storeLogCap {
		t.Fatalf("log holds %d stores, want %d", len(obj.pending.stores), storeLogCap)
	}
	gate.open()
	// A full log settles the object before the next store.
	q, err := r.GuardStore(addr+uint64(8*(storeLogCap+1)), 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(q, 999)
	if obj.pending != nil {
		t.Fatal("a store-once guard on a full log did not settle the object")
	}
	want := map[int]uint64{0: 1000, 1: 77, storeLogCap + 1: 999}
	for k := 2; k <= storeLogCap; k++ {
		want[k] = uint64(100 + k)
	}
	for k, v := range want {
		if got, ok := r.ObjectWord(d, 0, 8*k); !ok || got != v {
			t.Fatalf("word %d = %d, %v; want %d", k, got, ok, v)
		}
	}

	// Object 1: settled by ObjectWord, then by nothing else.
	q, err = r.GuardStore(addr+4096+16, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(q, 55)
	gate.open()
	if v, ok := r.ObjectWord(d, 1, 0); !ok || v != 1001 || d.objs[1].pending != nil {
		t.Fatalf("ObjectWord on a filling object = %d, %v (pending %v); want 1001 settled", v, ok, d.objs[1].pending != nil)
	}
	// Object 2: settled by a read guard.
	q, err = r.GuardStore(addr+2*4096+24, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	r.WriteWord(q, 66)
	gate.open()
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

// TestFillSettlesBeforeEviction: store-once misses over a store whose
// completions arrive late, into room for two frames, so almost every
// filling object is evicted (and written back) before anything reads
// it; every object must still read back its remote words and its stores.
func TestFillSettlesBeforeEviction(t *testing.T) {
	store := testutil.NewLateAsync(NewMapStore(), 200*time.Microsecond, 1)
	r, addr := asyncFaultRuntime(t, store)
	defer func() { r.Close(); store.Wait() }()
	writeWorkingSet(t, r, addr, 8)
	reads := store.Reads()
	for round := 1; round <= 3; round++ {
		for i := 0; i < 8; i++ {
			q, err := r.GuardStore(addr+uint64(i*4096+8*round), 0, 8)
			if err != nil {
				t.Fatal(err)
			}
			r.WriteWord(q, uint64(round*100+i))
		}
	}
	if store.Reads() == reads {
		t.Fatal("no store-once miss went to the store")
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
}

// TestFillDoublyFailedTrapsAtObserver: when both the async read and its
// synchronous reissue fail, the store-once guard itself succeeds, the
// first observer gets an error wrapping the read error, and the object
// keeps its frame and log, so a later observer whose reissue succeeds
// sees the remote bytes and the store.
func TestFillDoublyFailedTrapsAtObserver(t *testing.T) {
	store := &testutil.FailingAsync{ObjStore: NewMapStore()}
	r, addr := asyncFaultRuntime(t, store)
	writeWorkingSet(t, r, addr, 6)
	store.SyncFails = true
	q, err := r.GuardStore(addr+8, 0, 8)
	if err != nil {
		t.Fatalf("store-once guard: %v", err)
	}
	r.WriteWord(q, 77)
	_, err = r.Guard(addr, false)
	if !errors.Is(err, testutil.ErrInjected) || !strings.Contains(err.Error(), "async fetch ds0[0]") {
		t.Fatalf("observer error = %v, want an async fetch error wrapping the injected one", err)
	}
	if obj := &r.DSByID(0).objs[0]; obj.state != objLocal || obj.pending == nil {
		t.Fatalf("failed fill: state %v, pending %v; want still local and filling", obj.state, obj.pending != nil)
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
