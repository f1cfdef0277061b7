package farmem

import (
	"math/rand"
	"sync"
	"testing"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// chaosAsyncStore is an AsyncStore over a MapStore that injects failures
// probabilistically (deterministic given the seed and draw order) on
// every surface: sync reads, write-backs, and async completions — which
// are delivered from their own goroutines so CLOCK settle and revert
// race the op stream the way the pipelined TCP client makes them.
type chaosAsyncStore struct {
	*MapStore

	mu       sync.Mutex
	rng      *rand.Rand
	failP    float64
	injected int
	wg       sync.WaitGroup
}

func newChaosAsyncStore(seed int64, failP float64) *chaosAsyncStore {
	return &chaosAsyncStore{MapStore: NewMapStore(), rng: rand.New(rand.NewSource(seed)), failP: failP}
}

// heal turns off injection and waits out in-flight completions.
func (s *chaosAsyncStore) heal() {
	s.mu.Lock()
	s.failP = 0
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *chaosAsyncStore) inject() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rng.Float64() < s.failP {
		s.injected++
		return true
	}
	return false
}

func (s *chaosAsyncStore) injectedCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.injected
}

func (s *chaosAsyncStore) ReadObj(ds, idx int, dst []byte) error {
	if s.inject() {
		return errInjected
	}
	return s.MapStore.ReadObj(ds, idx, dst)
}

func (s *chaosAsyncStore) WriteObj(ds, idx int, src []byte) error {
	if s.inject() {
		return errInjected
	}
	return s.MapStore.WriteObj(ds, idx, src)
}

func (s *chaosAsyncStore) IssueRead(ds, idx int, dst []byte, done func(error)) {
	fail := s.inject()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if fail {
			done(errInjected)
			return
		}
		done(s.MapStore.ReadObj(ds, idx, dst))
	}()
}

// chaosWireStore is chaosAsyncStore leaving its async reads in wire
// form (testutil.WireForm).
type chaosWireStore struct{ *chaosAsyncStore }

func (s chaosWireStore) IssueReadWire(ds, idx int, dst []byte, blk *rdma.Block, done func(error)) {
	s.IssueRead(ds, idx, dst, func(err error) {
		if err == nil {
			testutil.WireForm(dst, blk)
		}
		done(err)
	})
}

// TestPropertyClockOracle drives seeded random op sequences — guarded
// reads, guarded writes, prefetches — over a working set 8x the
// remotable budget, against a chaos async store, and checks after every
// op that (a) the runtime never holds more remotable bytes than its
// budget and its in-flight table is consistent (checkTable), and at
// the end that (b) every byte the runtime serves equals
// a flat in-memory oracle. Failed ops (injected) must leave both
// invariants intact: a failed write mutates nothing, a failed prefetch
// reverts its frame (the CLOCK settle/revert paths), a failed eviction
// keeps the victim resident. The last four runs repeat the seeds over
// the store leaving reads in wire form, writing values of 31 bits, so
// objects travel as words blocks.
func TestPropertyClockOracle(t *testing.T) {
	const (
		objSize = 256
		nObjs   = 32
		budget  = 4 * objSize // 4 resident objects vs 32-object set
		nOps    = 600
	)
	for run, seed := range []int64{1, 7, 42, 1234, 1, 7, 42, 1234} {
		t.Run("", func(t *testing.T) {
			store := newChaosAsyncStore(seed, 0.2)
			var st Store = store
			wire := run >= 4
			if wire {
				st = chaosWireStore{store}
			}
			r := New(Config{
				PinnedBudget:    1 << 20,
				RemotableBudget: budget,
				Store:           st,
				MaxInflight:     4,
				// No retries, no breaker: every injected failure surfaces
				// raw, exercising the bare settle/revert machinery.
			})
			defer r.Close()
			if _, err := r.RegisterDS(0, DSMeta{Name: "prop", ObjSize: objSize}); err != nil {
				t.Fatal(err)
			}
			r.SetPlacement(0, PlaceRemotable)
			addr, err := r.DSAlloc(0, nObjs*objSize)
			if err != nil {
				t.Fatal(err)
			}
			d := r.DSByID(0)

			// Oracle: word address -> value; absent means still zero.
			oracle := make(map[uint64]uint64)
			rng := rand.New(rand.NewSource(seed * 31))

			checkBudget := func(op string, i int) {
				t.Helper()
				if r.RemotableUsed() > r.remotableBudget {
					t.Fatalf("op %d (%s): remotable used %d exceeds budget %d",
						i, op, r.RemotableUsed(), r.remotableBudget)
				}
				checkTable(t, r)
			}
			for i := 0; i < nOps; i++ {
				obj := rng.Intn(nObjs)
				word := rng.Intn(objSize/8) * 8
				va := addr + uint64(obj*objSize+word)
				switch rng.Intn(4) {
				case 0, 1: // guarded read, compared against the oracle
					p, err := r.Guard(va, false)
					if err != nil {
						checkBudget("read-fail", i)
						continue // injected miss: nothing may have changed
					}
					got, err := r.ReadWord(p)
					if err != nil {
						t.Fatalf("op %d: ReadWord: %v", i, err)
					}
					if want := oracle[va]; got != want {
						t.Fatalf("op %d: obj %d word %d: got %#x, oracle %#x",
							i, obj, word, got, want)
					}
					checkBudget("read", i)
				case 2: // guarded write; the oracle records it only on success
					v := rng.Uint64()
					if wire {
						v >>= 33
					}
					p, err := r.Guard(va, true)
					if err != nil {
						checkBudget("write-fail", i)
						continue
					}
					if err := r.WriteWord(p, v); err != nil {
						t.Fatalf("op %d: WriteWord: %v", i, err)
					}
					oracle[va] = v
					checkBudget("write", i)
				case 3: // prefetch hint: async issue, harvested by later guards
					r.PrefetchObj(d, obj)
					checkBudget("prefetch", i)
				}
			}

			// Heal the store, then read back every word of every object
			// through the runtime: contents must be byte-exact vs the
			// oracle regardless of which ops failed along the way.
			store.heal()
			for obj := 0; obj < nObjs; obj++ {
				for word := 0; word < objSize; word += 8 {
					va := addr + uint64(obj*objSize+word)
					p, err := r.Guard(va, false)
					if err != nil {
						t.Fatalf("final scan obj %d: %v", obj, err)
					}
					got, err := r.ReadWord(p)
					if err != nil {
						t.Fatalf("final scan obj %d word %d: %v", obj, word, err)
					}
					if want := oracle[va]; got != want {
						t.Fatalf("final scan obj %d word %d: got %#x, oracle %#x",
							obj, word, got, want)
					}
				}
				checkBudget("final-scan", obj)
			}

			// The run must actually have exercised the interesting paths:
			// prefetches issued (settle/harvest) and failures injected
			// (revert, failed evictions, failed misses).
			if d.Stats().PrefetchIssued == 0 {
				t.Fatal("sequence issued no prefetches")
			}
			if store.injectedCount() == 0 {
				t.Fatal("sequence injected no failures")
			}
			if r.Stats().Evictions == 0 {
				t.Fatal("sequence evicted nothing: budget not under pressure")
			}
		})
	}
}
