package replica

import (
	"testing"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// ackBackend acknowledges everything synchronously and touches nothing:
// the cheapest possible EpochBackend, so AllocsPerRun below measures
// only the replica layer itself — join pooling, epoch stamping, fan-out
// bookkeeping — not the transport underneath.
type ackBackend struct{}

func (ackBackend) ReadObj(ds, idx int, dst []byte) error  { return nil }
func (ackBackend) WriteObj(ds, idx int, src []byte) error { return nil }
func (ackBackend) IssueReadEpoch(ds, idx int, dst []byte, done func(uint64, error)) {
	done(^uint64(0), nil)
}
func (ackBackend) IssueWriteRangesEpoch(ds, idx int, epoch uint64, src []byte, exts []rdma.Extent, done func(error)) {
	done(nil)
}

// TestReplicatedWritePathSteadyStateAllocFree pins the zero-allocation
// property of the replicated write path: once the authority map holds
// the working set and the join pool is warm, a fanned-out IssueWrite —
// epoch stamp, group ranking, per-replica sub-writes, quorum
// accounting — must not touch the heap. A regression here puts the GC
// on the eviction critical path, multiplied by the replication factor.
func TestReplicatedWritePathSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation defeats escape analysis; alloc counts are meaningless")
	}
	backends := []farmem.Store{ackBackend{}, ackBackend{}, ackBackend{}}
	s, err := New(backends, Options{Replicas: 2, BreakerThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const objs = 16
	src := make([]byte, 256)
	done := func(err error) {
		if err != nil {
			t.Errorf("replicated write: %v", err)
		}
	}
	iter := func() {
		for i := 0; i < objs; i++ {
			s.IssueWrite(0, i, src, done)
		}
	}
	iter() // authority entries inserted, join pool warmed

	if avg := testing.AllocsPerRun(200, iter); avg >= 1 {
		t.Errorf("replicated write path allocates %.1f times per %d-object sweep, want 0", avg, objs)
	}
}
