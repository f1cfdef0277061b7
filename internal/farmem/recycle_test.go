package farmem

import (
	"errors"
	"sync"
	"testing"
)

// heldStore is an AsyncStore whose reads complete only when the test
// says so, in the order and with the outcome the test picks. It tracks
// which staging buffers it has been handed and not yet given up, and
// fails the test if the runtime hands one out again too early.
type heldStore struct {
	*MapStore
	t *testing.T

	mu   sync.Mutex
	held []heldRead
	live map[*byte]bool // handed to IssueRead, harvest not yet observed
	seen map[*byte]bool // every buffer ever handed out
	wg   sync.WaitGroup
}

type heldRead struct {
	ds, idx int
	dst     []byte
	done    func(error)
}

func (s *heldStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.live[&dst[0]] {
		s.t.Errorf("staging buffer of ds%d[%d] handed out again before its previous read was harvested", ds, idx)
	}
	s.live[&dst[0]] = true
	s.seen[&dst[0]] = true
	s.held = append(s.held, heldRead{ds, idx, dst, done})
}

// release completes held read i from its own goroutine: the store's last
// touch of the buffer, then the callback.
func (s *heldStore) release(i int, fail bool) {
	s.mu.Lock()
	h := s.held[i]
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if fail {
			// A failing transport may have written part of the payload.
			for j := range h.dst {
				h.dst[j] = 0xEE
			}
			h.done(errors.New("injected async failure"))
			return
		}
		h.done(s.ReadObj(h.ds, h.idx, h.dst))
	}()
}

// harvested tells the store the runtime has consumed read i's completion.
func (s *heldStore) harvested(i int) {
	s.mu.Lock()
	delete(s.live, &s.held[i].dst[0])
	s.mu.Unlock()
}

// TestPrefetchStagingIsRecycled: async-read staging (buffer, completion
// channel, callback) is pooled, and a pooled buffer is reissued only
// after its previous completion was received — success or failure —
// never while the store may still write it. Completions arrive out of
// order and a third of them fail; run under -race, an early reuse is
// also a data race between two release goroutines.
func TestPrefetchStagingIsRecycled(t *testing.T) {
	const (
		obj    = 256
		k      = 8
		rounds = 6
	)
	store := &heldStore{MapStore: NewMapStore(), t: t, live: map[*byte]bool{}, seen: map[*byte]bool{}}
	r := New(Config{
		PinnedBudget: 1 << 20, RemotableBudget: uint64(4 * k * obj),
		Store: store, MaxInflight: k,
	})
	addr := remoteFill(t, r, obj, 16*k)
	d := r.DSByID(0)

	order := []int{5, 2, 7, 0, 3, 6, 1, 4} // completion order within a round
	for round := 0; round < rounds; round++ {
		var idxs []int
		for i := range d.objs {
			if d.objs[i].state == objRemote && len(idxs) < k {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) < k {
			t.Fatalf("round %d: only %d remote objects", round, len(idxs))
		}
		base := len(store.held)
		for _, idx := range idxs {
			r.pfRemote = false
			if r.PrefetchObj(d, idx); !r.pfRemote {
				t.Fatalf("round %d: object %d reported not remote", round, idx)
			}
		}
		if got := len(store.held) - base; got != k {
			t.Fatalf("round %d: %d reads issued, want %d", round, got, k)
		}
		if n, m := len(r.entFree), len(r.bufFree[obj]); (n != 0 || m != 0) && round == 0 {
			t.Fatalf("free lists hold %d entries and %d buffers before anything was harvested", n, m)
		}
		for j, o := range order {
			store.release(base+o, (j+round)%3 == 0)
		}
		// Harvest in issue order (not completion order): each Guard blocks
		// until that object's completion has arrived.
		for j, idx := range idxs {
			p, err := r.Guard(addr+uint64(idx*obj), false)
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if v, _ := r.ReadWord(p); v != uint64(1000+idx) {
				t.Fatalf("round %d: object %d = %d, want %d", round, idx, v, 1000+idx)
			}
			store.harvested(base + j)
		}
		if n, m := len(r.entFree), len(r.bufFree[obj]); n != k || m != k {
			t.Fatalf("round %d: free lists hold %d entries and %d buffers after harvesting %d reads", round, n, m, k)
		}
	}
	store.wg.Wait()
	if n := len(store.seen); n != k {
		t.Fatalf("%d distinct staging buffers over %d rounds of %d prefetches, want %d (not recycled)", n, rounds, k, k)
	}
}
