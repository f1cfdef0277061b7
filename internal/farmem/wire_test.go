package farmem

import (
	"bytes"
	"testing"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// wireStore is a MapStore whose async reads complete inline, counted by
// surface: IssueRead decodes, IssueReadWire leaves the reply in wire form
// (testutil.WireForm: a words block for an object of small words).
// Writes are synchronous, so evictions leave no staged entry behind.
type wireStore struct {
	*MapStore
	async, wire int
}

func (s *wireStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.async++
	done(s.ReadObj(ds, idx, dst))
}

func (s *wireStore) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	s.wire++
	err := s.ReadObj(ds, idx, dst)
	if err == nil {
		testutil.WireForm(dst, blk)
	}
	done(err)
}

// wireRuntime is asyncFaultRuntime over a wireStore, with objects 0..3
// written back (word 0 of object i is 1000+i) and obj 0's last use out of
// the deref scope.
func wireRuntime(t *testing.T) (*Runtime, *DS, uint64, *wireStore) {
	t.Helper()
	s := &wireStore{MapStore: NewMapStore()}
	r, addr := asyncFaultRuntime(t, s)
	writeWorkingSet(t, r, addr, 6)
	for range recentWindow {
		if _, err := r.Guard(addr+5*4096, false); err != nil {
			t.Fatal(err)
		}
	}
	return r, r.DSByID(0), addr, s
}

// readWord derefs word 0 of object idx and checks it reads 1000+idx.
func readWord(t *testing.T, r *Runtime, addr uint64, idx int) {
	t.Helper()
	p, err := r.Guard(addr+uint64(idx*4096), false)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.ReadWord(p); v != uint64(1000+idx) {
		t.Fatalf("obj %d word 0 = %d, want %d", idx, v, 1000+idx)
	}
}

// TestUnusedReadAheadIsNeverDecoded: a landed read-ahead that the CLOCK
// hand meets unused and evicts is neither decoded nor copied into its
// frame — the frame still holds the zeros it was allocated with when it
// is evicted — and the eviction is counted as any other.
func TestUnusedReadAheadIsNeverDecoded(t *testing.T) {
	r, d, addr, s := wireRuntime(t)
	r.PrefetchObj(d, 0)
	r.link.WaitUntil(d.objs[0].ent.at)
	var frame []byte
	r.SetEventHook(func(ev Event) {
		if ev.Kind == EvEvict && ev.Obj == 0 {
			frame = bytes.Clone(r.arena.Bytes(d.objs[0].frame, 4096))
		}
	})
	evictions := r.stats.Evictions
	readWord(t, r, addr, 1) // its frame evicts the landed, unused obj 0
	if d.objs[0].state != objRemote || frame == nil {
		t.Fatalf("obj 0 state %d, evicted %v: want the unused read-ahead evicted", d.objs[0].state, frame != nil)
	}
	if s.wire != 1 || s.async != 0 {
		t.Fatalf("%d wire-form reads, %d decoded: want the read-ahead in wire form", s.wire, s.async)
	}
	if r.lands != 0 || !bytes.Equal(frame, make([]byte, 4096)) {
		t.Fatalf("%d payloads laid into frames, obj 0's frame at eviction holds word 0 = %d: want none", r.lands, frame[0])
	}
	if got := r.stats.Evictions - evictions; got != 1 {
		t.Fatalf("%d evictions, want 1: obj 0", got)
	}
	readWord(t, r, addr, 0) // a later miss reads it again
}

// TestUsedReadAheadIsDecodedOnceIntoItsFrame: a read-ahead left in wire
// form is decoded once, straight into the frame of the access that uses
// it — a deref of a prefetch, a miss served from a gather, and a deref of
// a prefetch that adopted a gather.
func TestUsedReadAheadIsDecodedOnceIntoItsFrame(t *testing.T) {
	for _, c := range []struct {
		name  string
		ahead func(r *Runtime, d *DS, addr uint64)
	}{
		{"prefetch", func(r *Runtime, d *DS, _ uint64) { r.PrefetchObj(d, 0) }},
		{"gather", func(r *Runtime, _ *DS, addr uint64) { r.gather(addr) }},
		{"adopted gather", func(r *Runtime, d *DS, addr uint64) { r.gather(addr); r.PrefetchObj(d, 0) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, d, addr, s := wireRuntime(t)
			c.ahead(r, d, addr)
			if e := d.objs[0].ent; e == nil || e.blk.Scheme != rdma.SchemeWords {
				t.Fatalf("obj 0's read ahead holds %+v, want a words block", e)
			}
			hits, gathers := d.stats.PrefetchHits, r.stats.GatherHits
			readWord(t, r, addr, 0)
			if s.wire != 1 || s.async != 0 || r.lands != 1 {
				t.Fatalf("%d wire-form reads, %d decoded, %d laid into frames: want 1, 0, 1", s.wire, s.async, r.lands)
			}
			if used := d.stats.PrefetchHits - hits + r.stats.GatherHits - gathers; used != 1 {
				t.Fatalf("%d prefetch and gather hits, want 1", used)
			}
		})
	}
}
