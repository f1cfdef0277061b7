package farmem

import (
	"runtime"
	"sync/atomic"
	"testing"

	"cards/internal/rdma"
)

// completingStore completes every async op with err, either inside the
// Issue call before it returns (inline) or later from a goroutine of its
// own, and counts the completions it delivered.
type completingStore struct {
	*MapStore
	inline bool
	err    error
	calls  atomic.Int32
}

func (s *completingStore) deliver(f func()) {
	s.calls.Add(1)
	if s.inline {
		f()
		return
	}
	go f()
}

func (s *completingStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	s.deliver(func() { done(s.err) })
}

func (s *completingStore) IssueWrite(ds, idx int, src []byte, done func(error)) {
	s.deliver(func() { done(s.err) })
}

func (s *completingStore) ChaseCapable() bool { return true }

func (s *completingStore) Chase(req rdma.ChaseReq) (rdma.ChaseResult, error) {
	return rdma.ChaseResult{}, s.err
}

func (s *completingStore) IssueChase(req rdma.ChaseReq, done func(rdma.ChaseResult, error)) {
	s.deliver(func() { done(rdma.ChaseResult{}, s.err) })
}

// TestCompletionSettlesOnce drives each kind of async op — a prefetch, a
// staged write-back, a chase — through the runtime's own issue path and
// checks the completion it is left with: the store's callback ran once,
// ready and wait report the same error, and both keep reporting it.
func TestCompletionSettlesOnce(t *testing.T) {
	const obj = 64
	kinds := []struct {
		name  string
		issue func(t *testing.T, r *Runtime, d *DS, addr uint64) *completion
	}{
		{"fetch", func(t *testing.T, r *Runtime, d *DS, addr uint64) *completion {
			walk(t, r, addr, obj, false) // one clean object evicted
			for i := range d.objs {
				if d.objs[i].state != objRemote {
					continue
				}
				if r.PrefetchObj(d, i); d.objs[i].ent != nil {
					return &d.objs[i].ent.completion
				}
			}
			t.Fatal("no evicted object to prefetch")
			return nil
		}},
		{"write-back", func(t *testing.T, r *Runtime, d *DS, addr uint64) *completion {
			walk(t, r, addr, obj, true) // one dirty object staged
			for _, p := range r.order {
				if p != nil && p.kind == entryWB {
					return &p.completion
				}
			}
			t.Fatal("no write-back staged")
			return nil
		}},
		{"chase", func(t *testing.T, r *Runtime, d *DS, addr uint64) *completion {
			if !r.issueChase(d, 0, 4) {
				t.Fatal("chase not issued")
			}
			return &d.objs[0].ent.completion
		}},
	}
	for _, k := range kinds {
		for _, inline := range []bool{true, false} {
			for _, want := range []error{nil, errInjected} {
				name := k.name + "/goroutine"
				if inline {
					name = k.name + "/inline"
				}
				if want != nil {
					name += "/error"
				}
				t.Run(name, func(t *testing.T) {
					st := &completingStore{MapStore: NewMapStore(), inline: inline, err: want}
					r := New(Config{PinnedBudget: 1 << 20, RemotableBudget: 16 * obj, Store: st, WriteBackBudget: 1 << 20})
					r.RegisterDS(0, DSMeta{ObjSize: obj, ElemSize: obj, Recursive: true, PtrOffsets: []int{0}})
					r.SetPlacement(0, PlaceRemotable)
					addr, err := r.DSAlloc(0, 32*obj)
					if err != nil {
						t.Fatal(err)
					}
					c := k.issue(t, r, r.DSByID(0), addr)
					if inline && !c.ready() {
						t.Fatal("a completion delivered inside Issue is not ready")
					}
					for !c.ready() {
						runtime.Gosched()
					}
					polled := c.err
					if got := c.wait(); got != polled || got != want {
						t.Fatalf("ready saw %v, wait returned %v, want %v", polled, got, want)
					}
					if !c.ready() || c.wait() != want || len(c.ch) != 0 {
						t.Fatal("a settled completion must keep its result and leave nothing queued")
					}
					if n := st.calls.Load(); n != 1 {
						t.Fatalf("store completed %d ops, want 1", n)
					}
					r.Close()
				})
			}
		}
	}
}

// walk touches 17 objects of a 16-object cache, so exactly one is
// evicted: clean, or dirty when write is set.
func walk(t *testing.T, r *Runtime, addr uint64, obj int, write bool) {
	t.Helper()
	for i := 0; i < 17; i++ {
		p, err := r.Guard(addr+uint64(i*obj), write)
		if err != nil {
			t.Fatal(err)
		}
		if write {
			r.WriteWord(p, uint64(i))
		}
	}
}
