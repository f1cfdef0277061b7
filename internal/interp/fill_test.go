package interp

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cards/internal/farmem"
	"cards/internal/ir"
	"cards/internal/prefetch"
	"cards/internal/testutil"
)

// TestFillRandomGuardedProgramsMatchSyncStore runs the programs of
// TestRandomGuardedProgramsMatchReference over stores whose async reads
// arrive late or fail, in room for three 32-byte frames, so the frames
// their store-once misses hand out are evicted, re-guarded and read back
// while filling. Result, trap text and a digest of structure 0's words
// read back after the run must be the synchronous store's; where the
// synchronous reissue of a failed read fails too, a run may instead trap
// with an error that wraps the read error.
func TestFillRandomGuardedProgramsMatchSyncStore(t *testing.T) {
	type outcome struct {
		v, digest      uint64
		err, digestErr error
	}
	run := func(m *ir.Module, store farmem.Store) (o outcome, prefetches uint64) {
		rt := farmem.New(farmem.Config{PinnedBudget: 1 << 16, RemotableBudget: 3 * 32, Store: store})
		defer rt.Close()
		rt.RegisterDS(0, farmem.DSMeta{ObjSize: 32, ElemSize: 8, Stride: 8, Pattern: farmem.PatternStrided})
		rt.SetPlacement(0, farmem.PlaceRemotable)
		rt.SetPrefetcher(0, prefetch.Select(prefetch.Hints{Pattern: farmem.PatternStrided, ElemSize: 8, Stride: 8, ObjSize: 32}))
		mach, err := New(m, rt, Options{})
		if err != nil {
			t.Fatal(err)
		}
		o.v, o.err = mach.Run()
		d := rt.DSByID(0)
		for off := uint64(0); off < d.Size(); off += 8 {
			p, err := rt.Guard(farmem.MakeAddr(0, off), false)
			if o.digestErr = err; err != nil {
				break
			}
			w, _ := rt.ReadWord(p)
			o.digest = o.digest*31 + w
		}
		return o, d.Stats().PrefetchIssued
	}
	var reads, prefetches uint64
	for seed := int64(1); seed <= 300; seed++ {
		m := genProgram(rand.New(rand.NewSource(seed)), true)
		want, _ := run(m, farmem.NewMapStore())
		same := func(store string, o outcome) {
			if o.v != want.v || fmt.Sprint(o.err) != fmt.Sprint(want.err) || o.digest != want.digest || o.digestErr != nil {
				t.Fatalf("seed %d over %s: %#x, %v, digest %#x; sync store %#x, %v, digest %#x\n%s",
					seed, store, o.v, o.err, o.digest, want.v, want.err, want.digest, m)
			}
		}
		late := testutil.NewLateAsync(farmem.NewMapStore(), 20*time.Microsecond, seed)
		o, pf := run(m, late)
		late.Wait()
		same("late fills", o)
		reads, prefetches = reads+uint64(late.Reads()), prefetches+pf
		o, _ = run(m, &testutil.FailingAsync{ObjStore: farmem.NewMapStore()})
		same("failed fills", o)
		o, _ = run(m, &testutil.FailingAsync{ObjStore: farmem.NewMapStore(), SyncFails: true})
		if !errors.Is(o.err, testutil.ErrInjected) && (o.v != want.v || fmt.Sprint(o.err) != fmt.Sprint(want.err)) {
			t.Fatalf("seed %d over doubly failed reads: %#x, %v; sync store %#x, %v", seed, o.v, o.err, want.v, want.err)
		}
	}
	if reads <= prefetches {
		t.Fatalf("%d async reads, all of them prefetches: no store-once miss filled", reads)
	}
}
