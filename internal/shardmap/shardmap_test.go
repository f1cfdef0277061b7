package shardmap

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
	"cards/internal/rdma"
)

// The surfaces ShardedStore's doc comment lists.
var _ interface {
	farmem.AsyncStore
	farmem.RangeWriteStore
	farmem.AsyncChaseStore
	farmem.Pinger
	farmem.Recoverable
	farmem.DrainScoper
} = (*ShardedStore)(nil)

func TestOwnerBalance(t *testing.T) {
	m := NewMap(4)
	counts := make([]int, 4)
	const keys = 40000
	for i := 0; i < keys; i++ {
		counts[m.Owner(ObjKey(0, i))]++
	}
	want := keys / 4
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("shard %d owns %d of %d keys (want ~%d)", i, c, keys, want)
		}
	}
}

func TestOwnerMinimalDisruption(t *testing.T) {
	// Rendezvous hashing: adding a shard may only move keys onto the new
	// shard, never shuffle keys between existing ones.
	m4, m5 := NewMap(4), NewMap(5)
	moved := 0
	const keys = 10000
	for i := 0; i < keys; i++ {
		a, b := m4.Owner(ObjKey(7, i)), m5.Owner(ObjKey(7, i))
		if a == b {
			continue
		}
		if b != 4 {
			t.Fatalf("key %d moved %d -> %d (not the new shard)", i, a, b)
		}
		moved++
	}
	if moved < keys/10 || moved > keys*3/10 {
		t.Fatalf("moved %d of %d keys; want ~1/5", moved, keys)
	}
}

func TestPolicyPinKeepsDSOnOneShard(t *testing.T) {
	backends := make([]farmem.Store, 4)
	for i := range backends {
		backends[i] = farmem.NewMapStore()
	}
	ss, err := NewSharded(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	ss.SetPolicy(3, PolicyPin)
	pinHome := ss.ShardOf(3, 0)
	stripeSeen := make(map[int]bool)
	for idx := 0; idx < 256; idx++ {
		if got := ss.ShardOf(3, idx); got != pinHome {
			t.Fatalf("pinned DS object %d on shard %d, want %d", idx, got, pinHome)
		}
		stripeSeen[ss.ShardOf(5, idx)] = true
	}
	if len(stripeSeen) != 4 {
		t.Fatalf("striped DS used %d shards, want 4", len(stripeSeen))
	}
}

func TestPolicyFor(t *testing.T) {
	if PolicyFor(true, false) != PolicyPin || PolicyFor(false, true) != PolicyPin {
		t.Fatal("recursive / pointer-chasing structures must pin")
	}
	if PolicyFor(false, false) != PolicyStripe {
		t.Fatal("flat pools must stripe")
	}
}

func TestShardedRoutingRoundTrip(t *testing.T) {
	backs := make([]*farmem.MapStore, 3)
	backends := make([]farmem.Store, 3)
	for i := range backs {
		backs[i] = farmem.NewMapStore()
		backends[i] = backs[i]
	}
	ss, err := NewSharded(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	const n = 64
	for idx := 0; idx < n; idx++ {
		src := []byte{byte(idx), byte(idx >> 1), 0xAB}
		if err := ss.WriteObj(0, idx, src); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for _, b := range backs {
		total += b.Objects()
	}
	if total != n {
		t.Fatalf("backends hold %d objects, want %d", total, n)
	}
	for idx := 0; idx < n; idx++ {
		// The owning backend must hold the object; a read through the
		// sharded store must return it byte-exact.
		dst := make([]byte, 3)
		if err := ss.ReadObj(0, idx, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0] != byte(idx) || dst[2] != 0xAB {
			t.Fatalf("object %d read back %v", idx, dst)
		}
		direct := make([]byte, 3)
		if err := backs[ss.ShardOf(0, idx)].ReadObj(0, idx, direct); err != nil {
			t.Fatal(err)
		}
		if direct[0] != byte(idx) {
			t.Fatalf("object %d not on its owning shard", idx)
		}
	}
	// A splice onto backends without the range verb: src is valid only
	// inside its extent, so the shard lays that over the stored image.
	for idx := 0; idx < n; idx++ {
		ss.IssueWriteRanges(0, idx, []byte{0xFF, 0x55, 0xFF}, []rdma.Extent{{Off: 1, Len: 1}}, func(err error) {
			if err != nil {
				t.Error(err)
			}
		})
		dst := make([]byte, 3)
		if err := ss.ReadObj(0, idx, dst); err != nil {
			t.Fatal(err)
		}
		if [3]byte(dst) != [3]byte{byte(idx), 0x55, 0xAB} {
			t.Fatalf("object %d read back %v after a splice", idx, dst)
		}
	}
}

// deadableStore fails every operation while dead, and supports Ping so
// the prober can detect revival.
type deadableStore struct {
	inner *farmem.MapStore
	dead  atomic.Bool // the prober's Ping reads it while the test flips it
}

var errDown = errors.New("backend down")

func (s *deadableStore) ReadObj(ds, idx int, dst []byte) error {
	if s.dead.Load() {
		return errDown
	}
	return s.inner.ReadObj(ds, idx, dst)
}

func (s *deadableStore) WriteObj(ds, idx int, src []byte) error {
	if s.dead.Load() {
		return errDown
	}
	return s.inner.WriteObj(ds, idx, src)
}

func (s *deadableStore) Ping() error {
	if s.dead.Load() {
		return errDown
	}
	return nil
}

func TestPerShardBreakerIndependenceAndRecovery(t *testing.T) {
	stores := make([]*deadableStore, 3)
	backends := make([]farmem.Store, 3)
	for i := range stores {
		stores[i] = &deadableStore{inner: farmem.NewMapStore()}
		backends[i] = stores[i]
	}
	ss, err := NewSharded(backends, Options{BreakerThreshold: 2, ProbeEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()

	// Find one object per shard.
	objOn := make([]int, 3)
	for i := range objOn {
		objOn[i] = -1
	}
	for idx := 0; idx < 256; idx++ {
		if s := ss.ShardOf(0, idx); objOn[s] == -1 {
			objOn[s] = idx
		}
	}
	buf := make([]byte, 8)
	for i, idx := range objOn {
		if idx == -1 {
			t.Fatalf("no object landed on shard %d", i)
		}
		if err := ss.WriteObj(0, idx, buf); err != nil {
			t.Fatal(err)
		}
	}

	const dead = 1
	stores[dead].dead.Store(true)
	// Trip the dead shard's breaker.
	for i := 0; i < 2; i++ {
		if err := ss.ReadObj(0, objOn[dead], buf); err == nil {
			t.Fatal("read from dead shard succeeded")
		}
	}
	if err := ss.ReadObj(0, objOn[dead], buf); !errors.Is(err, farmem.ErrDegraded) {
		t.Fatalf("tripped shard returned %v, want ErrDegraded", err)
	}
	if got := ss.ShardState(dead); got != farmem.BreakerOpen {
		t.Fatalf("dead shard state %v, want open", got)
	}
	// The other shards keep serving, breakers closed.
	for i, idx := range objOn {
		if i == dead {
			continue
		}
		if err := ss.ReadObj(0, idx, buf); err != nil {
			t.Fatalf("healthy shard %d failed: %v", i, err)
		}
		if got := ss.ShardState(i); got != farmem.BreakerClosed {
			t.Fatalf("healthy shard %d state %v", i, got)
		}
	}
	// Cluster-level Ping stays up: it fails on a total outage only.
	if err := ss.Ping(); err != nil {
		t.Fatalf("cluster ping while one shard down: %v", err)
	}

	// Revive; the prober arms half-open, the next op recovers and bumps
	// the epoch.
	before := ss.RecoveryEpoch()
	stores[dead].dead.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := ss.ReadObj(0, objOn[dead], buf); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead shard never recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := ss.ShardState(dead); got != farmem.BreakerClosed {
		t.Fatalf("recovered shard state %v", got)
	}
	if ss.RecoveryEpoch() != before+1 {
		t.Fatalf("recovery epoch %d, want %d", ss.RecoveryEpoch(), before+1)
	}
}

func TestShardedObsSeries(t *testing.T) {
	backends := make([]farmem.Store, 2)
	for i := range backends {
		backends[i] = farmem.NewMapStore()
	}
	ss, err := NewSharded(backends, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	buf := make([]byte, 16)
	for idx := 0; idx < 32; idx++ {
		if err := ss.WriteObj(0, idx, buf); err != nil {
			t.Fatal(err)
		}
		if err := ss.ReadObj(0, idx, buf); err != nil {
			t.Fatal(err)
		}
	}
	snap := ss.Obs().Snapshot()
	for i := 0; i < 2; i++ {
		lbl := fmt.Sprintf("%d", i)
		reads := snap.Counters[obs.Key(MetricShardReads, "shard", lbl)]
		objects := snap.Gauges[obs.Key(MetricShardObjects, "shard", lbl)]
		if reads == 0 || objects == 0 {
			t.Fatalf("shard %d missing obs series: reads=%d objects=%d", i, reads, objects)
		}
	}
}
