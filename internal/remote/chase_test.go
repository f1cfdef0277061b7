package remote

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"cards/internal/rdma"
	"cards/internal/testutil"
)

// chainStore builds a 4-node linked list in ds1: 64-byte objects with
// the successor's tagged address at offset 8, terminated by an untagged
// sentinel word. Returns the store and the per-object payload bytes.
func chainStore() (*ObjectStore, [][]byte) {
	store := NewObjectStore()
	const objSize = 64
	order := []uint32{0, 2, 1, 3} // traversal order != allocation order
	objs := make([][]byte, 4)
	for pos, idx := range order {
		b := make([]byte, objSize)
		for i := range b {
			b[i] = byte(0x40 + int(idx)*7 + i)
		}
		var next uint64 = 0xDEAD_BEEF // terminal sentinel, untagged
		if pos+1 < len(order) {
			next = 1<<63 | uint64(1)<<48 | uint64(order[pos+1])*objSize
		}
		binary.LittleEndian.PutUint64(b[8:], next)
		store.Write(1, idx, b)
		objs[idx] = b
	}
	return store, objs
}

// TestChaseCyclicChainBounded pins the server's walk bound: an
// unterminated (cyclic) chain must be cut off after exactly the hop
// budget — the server never loops, whatever the chain shape.
func TestChaseCyclicChainBounded(t *testing.T) {
	testutil.NoGoroutineLeaks(t)

	srv := NewServer()
	// Two 64-byte nodes pointing at each other: 0 -> 1 -> 0 -> ...
	for idx := uint32(0); idx < 2; idx++ {
		b := make([]byte, 64)
		binary.LittleEndian.PutUint64(b[8:], 1<<63|uint64(1)<<48|uint64(1-idx)*64)
		srv.Store.Write(1, idx, b)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialPipelined(addr, PipelineOpts{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const budget = 63
	res, err := c.Chase(rdma.ChaseReq{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: budget})
	if err != nil {
		t.Fatalf("chase over a cycle: %v", err)
	}
	if res.Status != rdma.ChaseHops || len(res.Hops) != budget {
		t.Fatalf("cycle walk: status %d hops %d, want ChaseHops/%d", res.Status, len(res.Hops), budget)
	}
	for i, h := range res.Hops {
		if h.Idx != uint32(i%2) {
			t.Fatalf("hop %d visited node %d, want %d", i, h.Idx, i%2)
		}
	}
	// Budget odd: the resume address points back at node 1.
	if !rdma.ChaseAddrTagged(res.Final) || rdma.ChaseAddrOff(res.Final)/64 != 1 {
		t.Fatalf("resume address %#x does not point at node 1", res.Final)
	}
}

// TestChaseReservedWordRefused: a CHASEBATCH tuple's last u64 is
// reserved (older peers sent a field-filter mask there). A program that
// sets it gets a definitive ERRTAG, nothing is walked, and the same
// session goes on serving chases and reads.
func TestChaseReservedWordRefused(t *testing.T) {
	testutil.NoGoroutineLeaks(t)
	store, objs := chainStore()
	srv := NewServer()
	srv.Store = store
	s := dialRaw(t, srv, 0)

	prog := []rdma.ChaseReq{{DS: 1, Start: 0, ObjSize: 64, NextOff: 8, Hops: 8}}
	masked := rdma.EncodeChaseBatchPooled(0, prog)
	binary.LittleEndian.PutUint64(masked.Payload[4+20:], 1) // tuple 0's reserved word
	resp := s.call(masked)
	if resp.Op != rdma.OpErrTag {
		t.Fatalf("reserved word set: answered with %s (%d bytes), want ERRTAG", resp.Op, len(resp.Payload))
	}
	rdma.PutBuf(resp.Payload)
	if got := srv.ObsSnapshot().Counters[MetricChaseHops]; got != 0 {
		t.Fatalf("a refused program walked %d hops", got)
	}

	res := s.chase(prog[0])
	if res.Status != rdma.ChaseDone || len(res.Hops) != 4 {
		t.Fatalf("chase after the refusal: status %d hops %d, want ChaseDone/4", res.Status, len(res.Hops))
	}
	for i, h := range res.Hops {
		if !bytes.Equal(h.Data, objs[h.Idx]) {
			t.Fatalf("hop %d (object %d) came back altered", i, h.Idx)
		}
	}
	if got, _ := s.read(false, rdma.ReadReq{DS: 1, Idx: 2, Size: 64}); !bytes.Equal(got[0], objs[2]) {
		t.Fatal("read after the refusal returned the wrong bytes")
	}
}
