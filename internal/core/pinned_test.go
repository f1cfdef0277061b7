package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/interp"
	"cards/internal/mira"
	"cards/internal/policy"
	"cards/internal/testutil"
	"cards/internal/trackfm"
	"cards/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/run_counters.golden from this build")

// TestRunCountersArePinned pins, to the unit, what a compiled run
// measures: the checksum, the interpreter's instruction / call / ROI
// tallies, the final virtual clock and the runtime's guard, fetch,
// eviction, prefetch and write-back counters — for four workloads under
// three CaRDS policies (each also over an async store, the /async lines)
// and both baselines, at 25% local memory. The golden
// was recorded from the build before the interpreter was pre-decoded and
// the prefetch hit path memoised; any rewrite of either must reproduce
// it exactly (a one-cycle drift in the order of clock charges shows up
// as a different prefetch arrival, hence different counters).
func TestRunCountersArePinned(t *testing.T) {
	builders := []struct {
		name  string
		build func() *workloads.Workload
	}{
		{"bfs", func() *workloads.Workload {
			return workloads.BuildBFS(workloads.BFSConfig{Vertices: 512, Degree: 6, Trials: 2, Seed: 42})
		}},
		{"taxi", func() *workloads.Workload {
			return workloads.BuildTaxi(workloads.TaxiConfig{Trips: 1 << 12, HotPasses: 4, Seed: 42})
		}},
		{"chase-list", func() *workloads.Workload { return mustChase(t, "list", 2048) }},
		{"chase-tree", func() *workloads.Workload { return mustChase(t, "tree", 1024) }},
	}

	var got bytes.Buffer
	line := func(wl, cfg string, main uint64, in interp.Stats, cycles uint64, rs farmem.RuntimeStats, perDS []farmem.DSStats) {
		fmt.Fprintf(&got, "%s/%s main=%#x instr=%d calls=%d roi=%d clock=%d guards=%d derefs=%d fetches=%d evictions=%d ds=",
			wl, cfg, main, in.Instructions, in.Calls, in.ROICycles, cycles,
			rs.GuardChecks, rs.DerefCalls, rs.RemoteFetches, rs.Evictions)
		for i, d := range perDS {
			if d.PrefetchIssued|d.PrefetchHits|d.WriteBacks == 0 {
				continue
			}
			fmt.Fprintf(&got, "[%d:%d/%d/%d]", i, d.PrefetchIssued, d.PrefetchHits, d.WriteBacks)
		}
		got.WriteByte('\n')
	}
	compile := func(build func() *workloads.Workload) *core.Compiled {
		c, err := core.Compile(build().Module, core.CompileOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	for _, b := range builders {
		local := b.build().WorkingSetBytes / 4
		rc := core.RunConfig{K: 50, Seed: 42, PinnedBudget: local / 2, RemotableBudget: local / 2}

		// All-remotable is Figure 9's CaRDS configuration; it is also the
		// only one under which the list's prefetcher runs at all (an early
		// all_local check otherwise commits the list to local memory).
		for _, pol := range []policy.Kind{policy.MaxUse, policy.Linear, policy.AllRemotable} {
			prc := rc
			prc.Policy = pol
			if pol == policy.AllRemotable {
				prc.PinnedBudget, prc.RemotableBudget = 0, local
			}
			res, err := compile(b.build).Run(prc)
			if err != nil {
				t.Fatalf("%s %v: %v", b.name, pol, err)
			}
			line(b.name, pol.String(), res.MainResult, res.Interp, res.Cycles, res.Runtime, res.PerDS)

			// The async column: the same run over a store whose async
			// reads and writes complete inline, so the runtime takes its
			// staged prefetch, staged write-back and store-once miss paths
			// with every completion already there when it looks.
			prc.Store = testutil.InlineAsync{ObjStore: farmem.NewMapStore()}
			res, err = compile(b.build).Run(prc)
			if err != nil {
				t.Fatalf("%s %v async: %v", b.name, pol, err)
			}
			line(b.name, pol.String()+"/async", res.MainResult, res.Interp, res.Cycles, res.Runtime, res.PerDS)
		}

		tc, err := trackfm.Compile(b.build().Module)
		if err != nil {
			t.Fatal(err)
		}
		tres, err := tc.Run(trackfm.RunConfig{LocalMemory: local})
		if err != nil {
			t.Fatalf("%s trackfm: %v", b.name, err)
		}
		line(b.name, "trackfm", tres.MainResult, tres.Interp, tres.Cycles, tres.Runtime, []farmem.DSStats{tres.Heap})

		mres, _, err := mira.Run(compile(b.build), compile(b.build), rc)
		if err != nil {
			t.Fatalf("%s mira: %v", b.name, err)
		}
		line(b.name, "mira", mres.MainResult, mres.Interp, mres.Cycles, mres.Runtime, mres.PerDS)
	}

	testutil.Golden(t, filepath.Join("testdata", "run_counters.golden"), got.Bytes(), *updateGolden)
}

func mustChase(t *testing.T, kind string, n int64) *workloads.Workload {
	t.Helper()
	w, err := workloads.BuildChase(kind, workloads.ChaseConfig{N: n, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return w
}
