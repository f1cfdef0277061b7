package farmem_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/policy"
	"cards/internal/testutil"
	"cards/internal/workloads"
)

// TestFillBuildersMatchSyncStore runs the compiled workloads the run
// counters are pinned on, under MaxUse and all-remotable, over stores
// whose async reads arrive late or fail, so store-once misses fill
// behind the program: every checksum
// must equal the synchronous store's, and where both an async read and
// its synchronous reissue fail, the run must fail with an error that
// wraps the read error.
func TestFillBuildersMatchSyncStore(t *testing.T) {
	builders := []struct {
		name  string
		build func() (*workloads.Workload, error)
	}{
		{"bfs", func() (*workloads.Workload, error) {
			return workloads.BuildBFS(workloads.BFSConfig{Vertices: 512, Degree: 6, Trials: 2, Seed: 42}), nil
		}},
		{"taxi", func() (*workloads.Workload, error) {
			return workloads.BuildTaxi(workloads.TaxiConfig{Trips: 1 << 12, HotPasses: 4, Seed: 42}), nil
		}},
		{"chase-list", func() (*workloads.Workload, error) {
			return workloads.BuildChase("list", workloads.ChaseConfig{N: 2048, Seed: 42})
		}},
		{"chase-tree", func() (*workloads.Workload, error) {
			return workloads.BuildChase("tree", workloads.ChaseConfig{N: 1024, Seed: 42})
		}},
	}
	run := func(build func() (*workloads.Workload, error), pol policy.Kind, store farmem.Store) (*core.RunResult, error) {
		w, err := build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.Compile(w.Module, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		local := w.WorkingSetBytes / 4
		rc := core.RunConfig{Policy: pol, K: 50, Seed: 42, PinnedBudget: local / 2, RemotableBudget: local / 2, Store: store}
		if pol == policy.AllRemotable {
			rc.PinnedBudget, rc.RemotableBudget = 0, local
		}
		return c.Run(rc)
	}
	for _, b := range builders {
		for _, pol := range []policy.Kind{policy.MaxUse, policy.AllRemotable} {
			name := fmt.Sprintf("%s/%v", b.name, pol)
			want, err := run(b.build, pol, farmem.NewMapStore())
			if err != nil {
				t.Fatalf("%s sync: %v", name, err)
			}
			same := func(store string, got *core.RunResult, err error) {
				if err != nil {
					t.Fatalf("%s over %s: %v", name, store, err)
				}
				if got.MainResult != want.MainResult {
					t.Fatalf("%s over %s: checksum %#x, want %#x", name, store, got.MainResult, want.MainResult)
				}
			}
			late := testutil.NewLateAsync(farmem.NewMapStore(), 50*time.Microsecond, 42)
			got, err := run(b.build, pol, late)
			late.Wait()
			same("late fills", got, err)
			got, err = run(b.build, pol, &testutil.FailingAsync{ObjStore: farmem.NewMapStore()})
			same("failed fills", got, err)
			got, err = run(b.build, pol, &testutil.FailingAsync{ObjStore: farmem.NewMapStore(), SyncFails: true})
			if want.Runtime.RemoteFetches == 0 {
				same("doubly failing reads", got, err)
			} else if !errors.Is(err, testutil.ErrInjected) {
				t.Fatalf("%s doubly failed reads: err %v, want one wrapping %v", name, err, testutil.ErrInjected)
			}
		}
	}
}
