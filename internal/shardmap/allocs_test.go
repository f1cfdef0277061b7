package shardmap

import (
	"testing"

	"cards/internal/farmem"
	"cards/internal/rdma"
	"cards/internal/testutil"
)

// TestShardedRouteAllocs pins the allocations per op of ShardedStore's
// gated route over backends that complete inline (and leave a read in
// wire form, so IssueReadWire is forwarded): an issued op costs
// its completion closure plus what the backend itself allocates (the
// store's copy of a write, a splice's read-back); a sync verb forwards
// directly and costs nothing. The analytics workload runs through this
// route, so an extra closure per op shows up on its spread.
func TestShardedRouteAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation defeats escape analysis; alloc counts are meaningless")
	}
	var backends []farmem.Store
	for range 3 {
		backends = append(backends, testutil.WireInline{InlineAsync: testutil.InlineAsync{ObjStore: farmem.NewMapStore()}})
	}
	ss, err := NewSharded(backends, Options{BreakerThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	buf, wire := make([]byte, 256), make([]byte, 256)
	var blk rdma.Block
	exts := []rdma.Extent{{Off: 8, Len: 8}}
	done := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	if err := ss.WriteObj(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		verb string
		want float64
		op   func()
	}{
		{"IssueRead", 1, func() { ss.IssueRead(0, 1, buf, done) }},
		{"IssueReadWire", 1, func() { ss.IssueReadWire(0, 1, wire, &blk, done) }},
		{"IssueWrite", 2, func() { ss.IssueWrite(0, 1, buf, done) }},
		{"IssueWriteRanges", 3, func() { ss.IssueWriteRanges(0, 1, buf, exts, done) }},
		{"ReadObj", 0, func() { done(ss.ReadObj(0, 1, buf)) }},
	} {
		if got := testing.AllocsPerRun(200, c.op); got != c.want {
			t.Errorf("%s: %v allocations per op, want %v", c.verb, got, c.want)
		}
	}
	if blk.Scheme != rdma.SchemeZero {
		t.Errorf("IssueReadWire of a zero object left %+v: not forwarded in wire form", blk)
	}
}
