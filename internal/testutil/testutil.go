// Package testutil holds helpers shared by test suites across packages.
// Only test code imports it.
package testutil

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// CheckGoroutines polls until the goroutine count settles back to the
// baseline: transport clients, servers, proxies, breaker probers and
// shard probers must all have wound down. Polling (rather than one
// sample) absorbs the teardown lag of goroutines that are mid-exit when
// the test body returns.
func CheckGoroutines(t testing.TB, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// NoGoroutineLeaks snapshots the goroutine count now and registers a
// cleanup that fails the test if the count has not settled back by the
// end. Call it first thing, before any servers or clients start.
func NoGoroutineLeaks(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() { CheckGoroutines(t, before) })
}

// Golden compares got with the golden file at path line by line and
// reports every line that differs. With update set it rewrites the file
// from got instead (the caller owns the -update-golden flag, since flag
// names are per test binary).
func Golden(t testing.TB, path string, got []byte, update bool) {
	t.Helper()
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Errorf("%s: %d lines rendered, golden has %d", path, len(gl), len(wl))
	}
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("%s line %d moved:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
}
