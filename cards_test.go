package cards

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"cards/internal/remote"
)

func newRuntime(t *testing.T) *Runtime {
	t.Helper()
	r, err := New(Config{PinnedMemory: 1 << 20, RemotableMemory: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func TestArrayBasics(t *testing.T) {
	r := newRuntime(t)
	a, err := NewArray[int64](r, "a", 100, Remotable)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 100 {
		t.Fatalf("Len = %d", a.Len())
	}
	for i := 0; i < 100; i++ {
		if err := a.Set(i, int64(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		v, err := a.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i*i) {
			t.Fatalf("a[%d] = %d, want %d", i, v, i*i)
		}
	}
	if a.Local() {
		t.Error("remotable array should not report local")
	}
	if a.Stats().Hits == 0 {
		t.Error("no hits recorded")
	}
}

func TestArrayFloat(t *testing.T) {
	r := newRuntime(t)
	a, err := NewArray[float64](r, "f", 10, Pinned)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Set(3, 2.75); err != nil {
		t.Fatal(err)
	}
	v, err := a.Get(3)
	if err != nil || v != 2.75 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if !a.Local() {
		t.Error("pinned array should be local")
	}
}

func TestArrayBounds(t *testing.T) {
	r := newRuntime(t)
	a, _ := NewArray[int64](r, "b", 4, Linear)
	if _, err := a.Get(-1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := a.Get(4); err == nil {
		t.Error("out-of-range index should fail")
	}
	if err := a.Set(99, 1); err == nil {
		t.Error("out-of-range set should fail")
	}
	if _, err := NewArray[int64](r, "z", 0, Linear); err == nil {
		t.Error("zero-length array should fail")
	}
}

func TestListOrderAndEarlyStop(t *testing.T) {
	r := newRuntime(t)
	l, err := NewList[int64](r, "l", Remotable)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := l.PushBack(i * 3); err != nil {
			t.Fatal(err)
		}
	}
	if l.Len() != 200 {
		t.Fatalf("Len = %d", l.Len())
	}
	var got []int64
	if err := l.Each(func(v int64) bool {
		got = append(got, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != int64(i*3) {
			t.Fatalf("element %d = %d, want %d", i, v, i*3)
		}
	}
	count := 0
	l.Each(func(v int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop walked %d", count)
	}
}

func TestMapPutGetOverwrite(t *testing.T) {
	r := newRuntime(t)
	m, err := NewMap[int64](r, "m", 128, Remotable)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 300; k++ {
		if err := m.Put(k, k*7); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 300 {
		t.Fatalf("Len = %d", m.Len())
	}
	for k := int64(0); k < 300; k++ {
		v, ok, err := m.Get(k)
		if err != nil || !ok || v != k*7 {
			t.Fatalf("Get(%d) = %d, %v, %v", k, v, ok, err)
		}
	}
	if _, ok, _ := m.Get(9999); ok {
		t.Error("absent key found")
	}
	// Overwrite must not grow the map.
	if err := m.Put(5, 500); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 300 {
		t.Fatalf("Len after overwrite = %d", m.Len())
	}
	v, ok, _ := m.Get(5)
	if !ok || v != 500 {
		t.Fatalf("overwritten value = %d", v)
	}
	if m.NodeStats().Hits == 0 || m.BucketStats().Hits == 0 {
		t.Error("stats not recorded")
	}
}

func TestRuntimeStats(t *testing.T) {
	r := newRuntime(t)
	a, _ := NewArray[int64](r, "s", 4096, Remotable)
	for i := 0; i < 4096; i++ {
		a.Set(i, 1)
	}
	st := r.Stats()
	if st.GuardChecks == 0 {
		t.Error("no guard checks")
	}
	if st.VirtualSeconds <= 0 {
		t.Error("virtual time did not advance")
	}
}

func TestEvictionPressureKeepsData(t *testing.T) {
	// A tiny cache forces eviction; data must survive round trips.
	r, err := New(Config{PinnedMemory: 0, RemotableMemory: 16 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	n := 32 * 512 // 32 objects of data
	a, err := NewArray[int64](r, "big", n, Remotable)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := a.Set(i, int64(i)^0x5a5a); err != nil {
			t.Fatal(err)
		}
	}
	for i := n - 1; i >= 0; i-- {
		v, err := a.Get(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i)^0x5a5a {
			t.Fatalf("a[%d] = %d corrupted", i, v)
		}
	}
	if r.Stats().Evictions == 0 {
		t.Error("expected eviction pressure")
	}
}

func TestRemoteTCPBackend(t *testing.T) {
	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r, err := New(Config{RemotableMemory: 8 * 4096, RemoteAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	n := 16 * 512
	a, err := NewArray[int64](r, "net", n, Remotable)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a.Set(i, int64(i+1))
	}
	for i := 0; i < n; i++ {
		v, err := a.Get(i)
		if err != nil || v != int64(i+1) {
			t.Fatalf("a[%d] = %d, %v", i, v, err)
		}
	}
	if srv.Store.Len() == 0 {
		t.Error("server never saw evicted objects")
	}
}

// TestCompressionModeIsChecked: Config.Compression takes "", "adaptive"
// or "off"; New refuses anything else, naming those, before it dials.
func TestCompressionModeIsChecked(t *testing.T) {
	srv := remote.NewServer()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, mode := range []string{"", "adaptive", "off"} {
		r, err := New(Config{RemotableMemory: 8 * 4096, RemoteAddr: addr, Compression: mode})
		if err != nil {
			t.Fatalf("Compression %q: %v", mode, err)
		}
		r.Close()
	}
	for _, mode := range []string{"Off", "none", "auto"} {
		_, err := New(Config{RemotableMemory: 8 * 4096, RemoteAddr: addr, Compression: mode})
		if err == nil || !strings.Contains(err.Error(), `"" or "adaptive" (adaptive) or "off" (raw)`) {
			t.Fatalf("Compression %q: err %v, want a refusal naming the modes", mode, err)
		}
	}
	if n := srv.Obs().Snapshot().Counter(remote.MetricConnsTotal); n != 3 {
		t.Fatalf("server saw %d connections, want 3: a refused mode must not dial", n)
	}
}

func TestBadRemoteAddr(t *testing.T) {
	if _, err := New(Config{RemoteAddr: "127.0.0.1:1"}); err == nil {
		t.Fatal("unreachable far tier should fail fast")
	}
}

// Property: a map behaves exactly like Go's built-in map under random
// operation sequences.
func TestMapModelProperty(t *testing.T) {
	f := func(keys []int64, vals []int64) bool {
		r, err := New(Config{PinnedMemory: 1 << 20, RemotableMemory: 1 << 18})
		if err != nil {
			return false
		}
		m, err := NewMap[int64](r, "p", 64, Remotable)
		if err != nil {
			return false
		}
		model := make(map[int64]int64)
		for i, k := range keys {
			v := int64(i)
			if i < len(vals) {
				v = vals[i]
			}
			k &= 127 // force collisions
			if m.Put(k, v) != nil {
				return false
			}
			model[k] = v
		}
		for k, want := range model {
			got, ok, err := m.Get(k)
			if err != nil || !ok || got != want {
				return false
			}
		}
		return m.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: array writes then reads round-trip arbitrary bit patterns.
func TestArrayRoundTripProperty(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 512 {
			vals = vals[:512]
		}
		r, err := New(Config{RemotableMemory: 8 * 4096})
		if err != nil {
			return false
		}
		a, err := NewArray[uint64](r, "rt", len(vals), Remotable)
		if err != nil {
			return false
		}
		for i, v := range vals {
			if a.Set(i, v) != nil {
				return false
			}
		}
		for i, v := range vals {
			got, err := a.Get(i)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestArrayBulkOps(t *testing.T) {
	r := newRuntime(t)
	a, err := NewArray[int64](r, "bulk", 500, Remotable)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Fill(func(i int) int64 { return int64(i) * 2 }); err != nil {
		t.Fatal(err)
	}
	sum, err := Reduce(a, int64(0), func(acc, v int64) int64 { return acc + v })
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(499 * 500); sum != want {
		t.Fatalf("Reduce = %d, want %d", sum, want)
	}
	// Early stop.
	visits := 0
	a.Scan(func(i int, v int64) bool {
		visits++
		return i < 9
	})
	if visits != 10 {
		t.Fatalf("Scan early stop visited %d", visits)
	}
}

func TestRuntimeTrace(t *testing.T) {
	var buf bytes.Buffer
	r, err := New(Config{RemotableMemory: 8 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	r.Trace(&buf)
	a, _ := NewArray[int64](r, "traced", 16*512, Remotable)
	a.Fill(func(i int) int64 { return int64(i) })
	r.Trace(nil)
	if !strings.Contains(buf.String(), "evict") {
		t.Fatalf("trace missing evictions:\n%.300s", buf.String())
	}
}
