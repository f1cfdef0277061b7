package farmem

import (
	"errors"
	"fmt"
	"testing"
)

// shardFake models a sharded store from the runtime's point of view:
// objects with idx%2 == 1 live on a "shard" that can be degraded, in
// which case their operations fail fast with ErrDegraded. Recovery
// bumps the epoch like shardmap.ShardedStore does. While failing, the
// shard's operations fail with a plain error instead, as a backend does
// before its own breaker trips.
type shardFake struct {
	inner    *MapStore
	degraded bool
	failing  bool
	epoch    uint64

	degradedOps int
}

func (s *shardFake) owns(idx int) bool { return idx%2 == 1 }

func (s *shardFake) gate(idx int) error {
	if s.degraded && s.owns(idx) {
		s.degradedOps++
		return fmt.Errorf("shard 1: %w", ErrDegraded)
	}
	if s.failing && s.owns(idx) {
		return errInjected
	}
	return nil
}

func (s *shardFake) ReadObj(ds, idx int, dst []byte) error {
	if err := s.gate(idx); err != nil {
		return err
	}
	return s.inner.ReadObj(ds, idx, dst)
}

func (s *shardFake) WriteObj(ds, idx int, src []byte) error {
	if err := s.gate(idx); err != nil {
		return err
	}
	return s.inner.WriteObj(ds, idx, src)
}

func (s *shardFake) recover() {
	s.degraded = false
	s.epoch++
}

func (s *shardFake) RecoveryEpoch() uint64 { return s.epoch }

// shardFaultRuntime builds a runtime over the fake with a 4-object
// remotable budget, a 16-object working set and the given breaker
// threshold.
func shardFaultRuntime(t *testing.T, store *shardFake, threshold int) (*Runtime, *DS, uint64) {
	t.Helper()
	const objSize = 4096
	r := New(Config{
		PinnedBudget:     1 << 20,
		RemotableBudget:  4 * objSize,
		Store:            store,
		BreakerThreshold: threshold,
	})
	d, err := r.RegisterDS(0, DSMeta{Name: "a", ObjSize: objSize, ElemSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetPlacement(0, PlaceRemotable); err != nil {
		t.Fatal(err)
	}
	addr, err := r.DSAlloc(0, 16*objSize)
	if err != nil {
		t.Fatal(err)
	}
	return r, d, addr
}

func writeObj(t *testing.T, r *Runtime, addr uint64, idx int, v uint64) {
	t.Helper()
	p, err := r.Guard(addr+uint64(idx)*4096, true)
	if err != nil {
		t.Fatalf("write obj %d: %v", idx, err)
	}
	if err := r.WriteWord(p, v); err != nil {
		t.Fatal(err)
	}
}

func readObj(t *testing.T, r *Runtime, addr uint64, idx int) (uint64, error) {
	t.Helper()
	p, err := r.Guard(addr+uint64(idx)*4096, false)
	if err != nil {
		return 0, err
	}
	return r.ReadWord(p)
}

func TestShardDegradedDerefFailsFastWithoutGlobalTrip(t *testing.T) {
	store := &shardFake{inner: NewMapStore()}
	r, _, addr := shardFaultRuntime(t, store, 0)
	defer r.Close()

	// Materialize and evict everything so all objects are remote.
	for idx := 0; idx < 16; idx++ {
		writeObj(t, r, addr, idx, uint64(idx))
	}
	for idx := 0; idx < 16; idx++ {
		if _, err := readObj(t, r, addr, idx); err != nil {
			t.Fatal(err)
		}
	}

	store.degraded = true
	// Remote derefs of shard-1 objects fail fast with ErrDegraded; the
	// retry loop must not spin (one gate refusal per deref).
	failed := 0
	for idx := 1; idx < 16; idx += 2 {
		if _, err := readObj(t, r, addr, idx); err != nil {
			if !errors.Is(err, ErrDegraded) {
				t.Fatalf("obj %d: %v, want ErrDegraded", idx, err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no shard-1 object was remote; working set too small")
	}
	if store.degradedOps != failed {
		t.Fatalf("%d store refusals for %d failed derefs: retried a degraded shard", store.degradedOps, failed)
	}
	if r.Stats().BreakerTrips != 0 {
		t.Fatal("per-shard degradation tripped the global breaker")
	}
	// Shard-0 objects keep serving exactly.
	for idx := 0; idx < 16; idx += 2 {
		v, err := readObj(t, r, addr, idx)
		if err != nil {
			t.Fatalf("healthy shard obj %d: %v", idx, err)
		}
		if v != uint64(idx) {
			t.Fatalf("obj %d = %d, want %d", idx, v, idx)
		}
	}
}

func TestShardDegradedDirtyPinnedThenDrainedOnEpoch(t *testing.T) {
	store := &shardFake{inner: NewMapStore()}
	r, d, addr := shardFaultRuntime(t, store, 0)
	defer r.Close()

	// Bring two shard-1 objects local and dirty them, then degrade the
	// shard: their write-backs now have nowhere to go.
	writeObj(t, r, addr, 1, 101)
	writeObj(t, r, addr, 3, 103)
	store.degraded = true

	// Thrash shard-0 objects well past the 4-object budget. Eviction
	// must route around the two pinned dirty objects (growing the budget
	// if everything else is protected) and the run must stay error-free.
	for round := 0; round < 4; round++ {
		for idx := 0; idx < 16; idx += 2 {
			writeObj(t, r, addr, idx, uint64(1000+idx))
		}
	}
	if used, ceil := r.RemotableUsed(), uint64(4*4*4096); used > ceil {
		t.Fatalf("remotable used %d exceeds ceiling %d", used, ceil)
	}
	if drained := r.Stats().DrainedWriteBacks; drained != 0 {
		t.Fatalf("%d write-backs drained while shard down", drained)
	}

	// Recover the shard and run one more successful store op (obj 5 is
	// on the recovered shard and could not have been fetched during the
	// outage, so reading it must miss): the epoch drain then writes the
	// stranded objects back and unpins them.
	store.recover()
	if _, err := readObj(t, r, addr, 5); err != nil {
		t.Fatal(err)
	}
	if drained := r.Stats().DrainedWriteBacks; drained < 2 {
		t.Fatalf("drained %d write-backs after recovery, want >= 2", drained)
	}
	// The drained copies must be the dirty values.
	buf := make([]byte, 8)
	if err := store.inner.ReadObj(d.ID, 1, buf); err != nil {
		t.Fatal(err)
	}
	if got := uint64(buf[0]) | uint64(buf[1])<<8; got != 101 {
		t.Fatalf("store holds %d for obj 1, want 101", got)
	}
	// And the budget shrinks back to its configured size as the cache
	// evicts down.
	for idx := 0; idx < 16; idx++ {
		if v, err := readObj(t, r, addr, idx); err != nil {
			t.Fatalf("post-recovery obj %d: %v", idx, err)
		} else if idx == 1 && v != 101 || idx == 3 && v != 103 {
			t.Fatalf("post-recovery obj %d = %d", idx, v)
		}
	}
}

// TestShardPlainFailuresNeverTripRuntimeBreaker: over a Recoverable
// store each backend is a fault domain with its own breaker, so the
// runtime arms none even with BreakerThreshold set. A run of plain
// failures on one shard, longer than the threshold, never trips it,
// and the other shard keeps serving exactly.
func TestShardPlainFailuresNeverTripRuntimeBreaker(t *testing.T) {
	store := &shardFake{inner: NewMapStore()}
	r, _, addr := shardFaultRuntime(t, store, 2)
	defer r.Close()
	for idx := 0; idx < 16; idx++ {
		writeObj(t, r, addr, idx, uint64(idx))
	}
	for idx := 0; idx < 16; idx++ {
		if _, err := readObj(t, r, addr, idx); err != nil {
			t.Fatal(err)
		}
	}

	store.failing = true
	failed := 0
	for idx := 1; idx < 16; idx += 2 {
		if _, err := readObj(t, r, addr, idx); err != nil {
			if !errors.Is(err, errInjected) {
				t.Fatalf("obj %d: %v, want the shard's own failure", idx, err)
			}
			failed++
		}
	}
	for idx := 0; idx < 16; idx += 2 {
		if v, err := readObj(t, r, addr, idx); err != nil || v != uint64(idx) {
			t.Fatalf("healthy shard obj %d = %d, %v; want %d", idx, v, err, idx)
		}
	}
	if failed <= 2 {
		t.Fatalf("%d failed derefs: the run never passed the threshold", failed)
	}
	if st := r.Stats(); st.BreakerTrips != 0 || st.DegradedOps != 0 || r.BreakerState() != BreakerClosed {
		t.Fatalf("%d trips, %d degraded ops, breaker %v: want 0, 0, closed", st.BreakerTrips, st.DegradedOps, r.BreakerState())
	}
}
