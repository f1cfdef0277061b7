package remote

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"cards/internal/rdma"
)

// TestPopRunBoundCoversEncodedFrame: every run popRun cuts — reads,
// chases and writes, stamped or not, small and sized to fill a frame —
// encodes to no more than rdma.BatchHdrBound plus the ops' wireBounds.
// Each run is encoded by the real encoder in its worst case: a read
// reply's segments raw, or packed one byte short of raw, all under the
// widest epoch; every chase walking its full hop budget; writes through
// the client's own compressing encoder, in every scheme.
func TestPopRunBoundCoversEncodedFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	noise := make([]byte, rdma.MaxFrame)
	rng.Read(noise)
	ones := bytes.Repeat([]byte{0xFF}, rdma.MaxFrame) // a raw segment however the builder scans it
	cl := &PipelinedClient{compress: true}
	var cb rdma.DataBatchCBuilder
	defer cb.Release()
	var sc flushScratch

	readOp := func(size int) *pipeOp {
		return &pipeOp{ds: 1, idx: uint32(rng.Intn(1 << 20)), size: uint32(size), wantEp: rng.Intn(2) == 0}
	}
	chaseOp := func(hops, objSize uint32) *pipeOp {
		return &pipeOp{chase: true, creq: rdma.ChaseReq{DS: 1, Start: uint32(rng.Intn(1 << 20)), ObjSize: objSize, Hops: hops}}
	}
	writeOp := func(size int) *pipeOp {
		op := &pipeOp{write: true, ds: 2, idx: uint32(rng.Intn(1 << 20)), wantEp: rng.Intn(2) == 0, epoch: math.MaxUint64}
		switch rng.Intn(4) {
		case 0:
			op.data = make([]byte, size) // zero
		case 1:
			op.data = sparseInt64(size, rng) // words
		case 2:
			op.data = bytes.Repeat([]byte("compressible "), size/13+1)[:size] // LZ
		default:
			off := rng.Intn(len(noise) - size + 1)
			op.data = noise[off : off+size] // raw
		}
		if size >= 64 && rng.Intn(2) == 0 {
			var exts []rdma.Extent
			for off := rng.Intn(32); off < size && len(exts) < rdma.MaxExtents; off += 1 + rng.Intn(size/4+1) {
				n := min(1+rng.Intn(16), size-off)
				exts = append(exts, rdma.Extent{Off: uint32(off), Len: uint32(n)})
				off += n
			}
			if rangeWritable(op.data, exts) {
				op.exts = exts
			}
		}
		return op
	}

	// encoded is the payload length of the run's frame in the direction
	// wireBound prices: the reply of a read or chase, the request of a write.
	encoded := func(run []*pipeOp) int {
		head := run[0]
		switch {
		case head.write:
			f, err := cl.encode(plannedFrame{tag: 1, ops: run}, &sc)
			if err != nil {
				t.Fatal(err)
			}
			defer rdma.PutBuf(f.Payload)
			return len(f.Payload)
		case head.chase:
			results := make([]rdma.ChaseResult, len(run))
			for i, op := range run {
				hop := rdma.ChaseHop{Data: noise[:op.creq.ObjSize]}
				results[i].Hops = make([]rdma.ChaseHop, op.creq.Hops)
				for h := range results[i].Hops {
					results[i].Hops[h] = hop
				}
			}
			f, err := rdma.EncodeChaseData(1, results)
			if err != nil {
				t.Fatal(err)
			}
			return len(f.Payload)
		}
		cb.Reset()
		if head.wantEp {
			cb.BeginEpoch()
		}
		for _, op := range run {
			if n := int(op.size); n >= 2 && rng.Intn(2) == 0 {
				cb.AddWire(rdma.SchemeLZ, n, noise[:n-1])
			} else {
				buf := cb.Stage(n)
				copy(buf, ones)
				cb.Add(buf, false)
			}
			if head.wantEp {
				cb.Stamp(math.MaxUint64)
			}
		}
		f, err := cb.Frame(1)
		if err != nil {
			t.Fatal(err)
		}
		defer rdma.PutBuf(f.Payload)
		return len(f.Payload)
	}

	check := func(q []*pipeOp) {
		t.Helper()
		for len(q) > 0 {
			run := popRun(&q, 1+rng.Intn(64))
			bound := rdma.BatchHdrBound
			for _, op := range run {
				bound += op.wireBound()
			}
			if bound > rdma.MaxFrame {
				t.Fatalf("popRun cut a %d-op run bounded at %d bytes, over MaxFrame", len(run), bound)
			}
			if n := encoded(run); n > bound {
				t.Fatalf("a %d-op run of %s encodes to %d bytes, bounded at %d", len(run), run[0].reqOp(), n, bound)
			}
		}
	}

	smallReads := []int{0, 1, 4 << 10}
	for trial := 0; trial < 200; trial++ {
		var q []*pipeOp
		for i := rng.Intn(80); i >= 0; i-- {
			switch rng.Intn(3) {
			case 0:
				q = append(q, readOp(smallReads[rng.Intn(len(smallReads))]))
			case 1:
				q = append(q, chaseOp(1+uint32(rng.Intn(16)), 8<<rng.Intn(10)))
			default:
				q = append(q, writeOp(1+rng.Intn(8<<10)))
			}
		}
		check(q)
	}
	// Runs that fill a frame: k ops sized just under MaxFrame/k, so the
	// frame limit, not the op count, decides where popRun cuts.
	for trial := 0; trial < 12; trial++ {
		k := 1 + rng.Intn(4)
		per := rdma.MaxFrame/k - 64 - rng.Intn(64)
		var q []*pipeOp
		for i := 0; i < k+1; i++ {
			switch trial % 3 {
			case 0:
				q = append(q, readOp(per))
			case 1:
				objSize := uint32(4 << 10)
				q = append(q, chaseOp(uint32(per)/(objSize+8)-1, objSize))
			default:
				q = append(q, writeOp(per))
			}
		}
		check(q)
	}
}
