package shardmap

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cards/internal/farmem"
	"cards/internal/obs"
)

// TestRecoveryEpochStampPrecedesPublish pins the ordering both stores'
// drain scoping leans on: whoever observes RecoveryEpoch() == e finds
// the backend whose recovery made it e already stamped >= e, so
// RecoveredSince(prev) is true for every prev < e. Four backends trip
// and recover as fast as they can, concurrently, while readers check
// every epoch they see; and each recovery must have stamped exactly the
// epoch it published, so the stamps are 1..N with none shared (two
// recoveries sharing a stamp means one of them published an epoch above
// its stamp).
func TestRecoveryEpochStampPrecedesPublish(t *testing.T) {
	const n = 4
	backends := make([]farmem.Store, n)
	for i := range backends {
		backends[i] = farmem.NewMapStore()
	}
	f, err := NewFleet(backends, 1, 1, time.Hour, obs.NewRegistry(), Series{
		Pkg: "test", Label: "b", Failures: "f", Trips: "t", Recoveries: "r", State: "s",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const rounds = 5000
	var stop atomic.Bool
	var flappers, readers sync.WaitGroup
	stamps := make([][]uint64, n)
	for i, b := range f.Backends() {
		flappers.Add(1)
		go func() {
			defer flappers.Done()
			for r := 0; r < rounds; r++ {
				b.Fail() // threshold 1: trips
				b.OK()   // a success on an open breaker recovers it
				stamps[i] = append(stamps[i], b.lastRecovery.Load())
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				e := f.RecoveryEpoch()
				if e == 0 {
					continue
				}
				stamped := false
				for _, b := range f.Backends() {
					stamped = stamped || b.RecoveredSince(e-1)
				}
				if !stamped {
					t.Errorf("observed recovery epoch %d with no backend stamped >= %d", e, e)
					return
				}
			}
		}()
	}
	flappers.Wait()
	stop.Store(true)
	readers.Wait()
	if got := f.RecoveryEpoch(); got != n*rounds {
		t.Fatalf("RecoveryEpoch = %d after %d recoveries", got, n*rounds)
	}
	seen := make([]bool, n*rounds+1)
	for _, ss := range stamps {
		for _, st := range ss {
			if st == 0 || st > n*rounds || seen[st] {
				t.Fatalf("recovery stamped %d: out of range, or shared with another recovery", st)
			}
			seen[st] = true
		}
	}
}
