package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/remote"
)

// remote.PipelinedClient is the backend replica.New is given in
// production; it must keep speaking both epoch verbs.
var _ EpochBackend = (*remote.PipelinedClient)(nil)

// The surfaces Store's doc comment lists.
var _ interface {
	farmem.AsyncStore
	farmem.RangeWriteStore
	farmem.AsyncChaseStore
	farmem.Pinger
	farmem.Recoverable
	farmem.DrainScoper
} = (*Store)(nil)

// fakeBackend is an in-memory EpochBackend + Pinger with a kill
// switch, standing in for one remote server plus its resilient client.
// It splices range writes by the server's rule (ObjectStore.WriteRangeEpoch)
// and fails the next loseSplices of them before applying anything.
type fakeBackend struct {
	mu          sync.Mutex
	m           map[[2]int][]byte
	ep          map[[2]int]uint64
	loseSplices int
	down        atomic.Bool

	reads, writes atomic.Int64
}

func newFake() *fakeBackend {
	return &fakeBackend{m: make(map[[2]int][]byte), ep: make(map[[2]int]uint64)}
}

var errDown = errors.New("fake backend down")

func (f *fakeBackend) ReadObj(ds, idx int, dst []byte) error {
	_, err := f.readEpoch(ds, idx, dst)
	return err
}

func (f *fakeBackend) WriteObj(ds, idx int, src []byte) error {
	return f.writeEpoch(ds, idx, 0, src, nil)
}

func (f *fakeBackend) readEpoch(ds, idx int, dst []byte) (uint64, error) {
	if f.down.Load() {
		return 0, errDown
	}
	f.reads.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [2]int{ds, idx}
	n := copy(dst, f.m[k])
	for i := n; i < len(dst); i++ {
		dst[i] = 0
	}
	return f.ep[k], nil
}

var errSpliceLost = errors.New("fake backend lost a splice")

// writeEpoch stores src whole without extents; with them, src is valid
// only inside the extents, which are laid over the stored image — and
// only onto the predecessor epoch's (or a newer) one.
func (f *fakeBackend) writeEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent) error {
	if f.down.Load() {
		return errDown
	}
	f.writes.Add(1)
	f.mu.Lock()
	defer f.mu.Unlock()
	k := [2]int{ds, idx}
	if exts != nil && f.loseSplices > 0 {
		f.loseSplices--
		return errSpliceLost
	}
	if epoch < f.ep[k] {
		return nil // stale image dropped, positive ack
	}
	cp := make([]byte, len(src))
	if exts == nil {
		copy(cp, src)
	} else {
		if f.ep[k]+1 < epoch {
			return remote.ErrStaleRangeBase
		}
		copy(cp, f.m[k])
		for _, e := range exts {
			copy(cp[e.Off:e.Off+e.Len], src[e.Off:])
		}
	}
	f.m[k] = cp
	f.ep[k] = epoch
	return nil
}

func (f *fakeBackend) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	done(f.readEpoch(ds, idx, dst))
}

func (f *fakeBackend) IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error)) {
	done(f.writeEpoch(ds, idx, epoch, src, exts))
}

func (f *fakeBackend) Ping() error {
	if f.down.Load() {
		return errDown
	}
	return nil
}

func (f *fakeBackend) epoch(ds, idx int) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ep[[2]int{ds, idx}]
}

func (f *fakeBackend) image(ds, idx int) []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.m[[2]int{ds, idx}]...)
}

func newTestStore(t *testing.T, n int, opts Options) (*Store, []*fakeBackend) {
	t.Helper()
	fakes := make([]*fakeBackend, n)
	backends := make([]farmem.Store, n)
	for i := range fakes {
		fakes[i] = newFake()
		backends[i] = fakes[i]
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = 1
	}
	if opts.ProbeEvery == 0 {
		opts.ProbeEvery = 2 * time.Millisecond
	}
	s, err := New(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, fakes
}

func val(i int) []byte {
	b := make([]byte, 64)
	for j := range b {
		b[j] = byte(i + j)
	}
	return b
}

func TestWriteFansOutToGroup(t *testing.T) {
	s, fakes := newTestStore(t, 3, Options{Replicas: 2})
	const objs = 32
	for i := 0; i < objs; i++ {
		if err := s.WriteObj(1, i, val(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	var gbuf [MaxReplicas]int
	for i := 0; i < objs; i++ {
		group := s.GroupOf(1, i, gbuf[:0])
		if len(group) != 2 {
			t.Fatalf("group size %d", len(group))
		}
		for _, gi := range group {
			if got := fakes[gi].image(1, i); !bytes.Equal(got, val(i)) {
				t.Fatalf("obj %d missing on group member %d", i, gi)
			}
			if ep := fakes[gi].epoch(1, i); ep != 1 {
				t.Fatalf("obj %d epoch %d on member %d, want 1", i, ep, gi)
			}
		}
		// And not on the non-member.
		for bi, f := range fakes {
			in := bi == group[0] || bi == group[1]
			if !in && len(f.image(1, i)) != 0 {
				t.Fatalf("obj %d leaked to non-member %d", i, bi)
			}
		}
	}
	// Rewrites bump the epoch.
	if err := s.WriteObj(1, 0, val(99)); err != nil {
		t.Fatal(err)
	}
	group := s.GroupOf(1, 0, gbuf[:0])
	if ep := fakes[group[0]].epoch(1, 0); ep != 2 {
		t.Fatalf("epoch after rewrite = %d, want 2", ep)
	}
}

func TestReadFailsOverOnDeadPrimary(t *testing.T) {
	s, fakes := newTestStore(t, 3, Options{Replicas: 2})
	const objs = 16
	for i := 0; i < objs; i++ {
		if err := s.WriteObj(1, i, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var gbuf [MaxReplicas]int
	group := s.GroupOf(1, 0, gbuf[:0])
	primary := group[0]
	fakes[primary].down.Store(true)

	// Every object still reads exactly — objects whose primary died are
	// served by the next-ranked replica; zero degraded errors.
	dst := make([]byte, 64)
	for i := 0; i < objs; i++ {
		if err := s.ReadObj(1, i, dst); err != nil {
			t.Fatalf("read %d with backend %d down: %v", i, primary, err)
		}
		if !bytes.Equal(dst, val(i)) {
			t.Fatalf("read %d returned wrong bytes after failover", i)
		}
	}
	if s.Obs().Snapshot().Counter(MetricReplicaFailovers) == 0 {
		t.Fatal("no failover was recorded")
	}
}

func TestStaleReplicaExcludedByEpoch(t *testing.T) {
	s, fakes := newTestStore(t, 2, Options{Replicas: 2})
	if err := s.WriteObj(1, 0, val(1)); err != nil {
		t.Fatal(err)
	}
	var gbuf [MaxReplicas]int
	group := s.GroupOf(1, 0, gbuf[:0])
	primary, backup := group[0], group[1]

	// The backup misses the second write (down), then comes back
	// holding a stale epoch-1 image.
	fakes[backup].down.Store(true)
	if err := s.WriteObj(1, 0, val(2)); err != nil {
		t.Fatal(err)
	}
	fakes[backup].down.Store(false)

	// Force reads toward the stale backup by killing the primary: the
	// loose pass may reach the backup, but its epoch stamp is below the
	// authority, so the read must NOT return the stale bytes.
	fakes[primary].down.Store(true)
	dst := make([]byte, 64)
	err := s.ReadObj(1, 0, dst)
	if err == nil {
		t.Fatal("read served a stale image: no current replica was reachable")
	}
	if !errors.Is(err, farmem.ErrDegraded) {
		t.Fatalf("want ErrDegraded-wrapped failure, got %v", err)
	}

	// Primary back: reads serve the current image again.
	fakes[primary].down.Store(false)
	waitFor(t, func() bool { return s.MemberState(primary) != farmem.BreakerOpen })
	if err := s.ReadObj(1, 0, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, val(2)) {
		t.Fatal("read returned stale bytes")
	}
}

func TestResyncRejoinsAfterRestart(t *testing.T) {
	s, fakes := newTestStore(t, 2, Options{Replicas: 2})
	const objs = 24
	for i := 0; i < objs; i++ {
		if err := s.WriteObj(1, i, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	var gbuf [MaxReplicas]int
	group := s.GroupOf(1, 0, gbuf[:0])
	backup := group[1]

	// The backup dies and misses a round of writes.
	fakes[backup].down.Store(true)
	for i := 0; i < objs; i++ {
		if err := s.WriteObj(1, i, val(1000+i)); err != nil {
			t.Fatalf("write with backup down: %v", err)
		}
	}
	waitFor(t, func() bool { return !s.MemberInSync(backup) })

	// It returns; anti-entropy must re-copy the divergent objects from
	// the survivor and re-admit it to the read set.
	fakes[backup].down.Store(false)
	waitFor(t, func() bool { return s.MemberInSync(backup) })

	for i := 0; i < objs; i++ {
		g := s.GroupOf(1, i, gbuf[:0])
		for _, gi := range g {
			if got := fakes[gi].image(1, i); !bytes.Equal(got, val(1000+i)) {
				t.Fatalf("obj %d on member %d not resynced", i, gi)
			}
			if ep, want := fakes[gi].epoch(1, i), uint64(2); ep != want {
				t.Fatalf("obj %d on member %d epoch %d, want %d", i, gi, ep, want)
			}
		}
	}
	snap := s.Obs().Snapshot()
	if snap.Counter(MetricReplicaResyncs, "backend", fmt.Sprint(backup)) == 0 {
		t.Fatal("resync not counted")
	}
	if snap.Counter(MetricReplicaResyncedObjs) == 0 {
		t.Fatal("no objects were resynced")
	}
}

func TestQuorumUnreachableParksAndRecovers(t *testing.T) {
	s, fakes := newTestStore(t, 2, Options{Replicas: 2, WriteQuorum: 2})
	if err := s.WriteObj(1, 0, val(1)); err != nil {
		t.Fatal(err)
	}
	var gbuf [MaxReplicas]int
	group := s.GroupOf(1, 0, gbuf[:0])
	backup := group[1]
	fakes[backup].down.Store(true)

	// W=2 with one member down: the first write takes the transport
	// error (tripping the breaker at threshold 1), later ones fail fast
	// as a contained degraded condition.
	err := s.WriteObj(1, 0, val(2))
	if err == nil {
		t.Fatal("write met quorum with a member down")
	}
	waitFor(t, func() bool { return s.MemberState(backup) == farmem.BreakerOpen })
	err = s.WriteObj(1, 0, val(3))
	if !errors.Is(err, farmem.ErrDegraded) {
		t.Fatalf("want ErrDegraded-wrapped quorum failure, got %v", err)
	}
	since := s.RecoveryEpoch()
	if s.ShouldDrain(1, 0, since) {
		t.Fatal("ShouldDrain true while quorum unreachable")
	}
	if !s.Stranded(1, 0) {
		t.Fatal("Stranded false while quorum unreachable")
	}

	fakes[backup].down.Store(false)
	waitFor(t, func() bool { return s.RecoveryEpoch() > since })
	waitFor(t, func() bool { return s.ShouldDrain(1, 0, since) })
	if s.Stranded(1, 0) {
		t.Fatal("Stranded after recovery")
	}
	if err := s.WriteObj(1, 0, val(4)); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestSpliceLostOnEveryReplicaIsRebuilt: the splice of an object a
// store-once miss left unread fails on every group member, so its epoch
// was stamped but reached no replica. The runtime's reissue rebuilds the
// image from a base read — which must be served at the last
// acknowledged epoch, not refused for missing the stamped one — writes
// it whole, and the object reads back exactly.
func TestSpliceLostOnEveryReplicaIsRebuilt(t *testing.T) {
	s, fakes := newTestStore(t, 2, Options{Replicas: 2, BreakerThreshold: 5})
	rt := farmem.New(farmem.Config{PinnedBudget: 1 << 20, RemotableBudget: 2 * 4096, WriteBackBudget: 1 << 20, Store: s})
	defer rt.Close()
	rt.RegisterDS(0, farmem.DSMeta{ObjSize: 4096})
	rt.SetPlacement(0, farmem.PlaceRemotable)
	addr, err := rt.DSAlloc(0, 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	guard := func(off uint64, write, once bool) uint64 {
		t.Helper()
		var p uint64
		if once {
			p, err = rt.GuardStore(addr+off, 0, 8)
		} else {
			p, err = rt.Guard(addr+off, write)
		}
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for i := uint64(0); i < 6; i++ { // objects 0..3 end up remote
		rt.WriteWord(guard(i*4096, true, false), 1000+i)
	}
	if err := rt.DrainWriteBacks(); err != nil {
		t.Fatal(err)
	}
	for _, f := range fakes {
		f.mu.Lock()
		f.loseSplices = 1
		f.mu.Unlock()
	}
	rt.WriteWord(guard(8, false, true), 77) // object 0, unread
	guard(4*4096, false, false)             // evicts it: the splice goes out
	guard(5*4096, false, false)
	if err := rt.DrainWriteBacks(); err != nil {
		t.Fatalf("the lost splice was not rebuilt: %v", err)
	}
	if n := rt.Stats().WriteBackReissues; n != 1 {
		t.Fatalf("%d write-back reissues, want the one rebuild", n)
	}
	for _, f := range fakes {
		if f.loseSplices != 0 {
			t.Fatal("a member never saw the splice")
		}
	}
	for off, want := range map[uint64]uint64{0: 1000, 8: 77} {
		if got, _ := rt.ReadWord(guard(off, false, false)); got != want {
			t.Fatalf("word at %d = %d, want %d", off, got, want)
		}
	}
}
