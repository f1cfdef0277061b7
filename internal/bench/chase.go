package bench

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"cards/internal/faultnet"
	"cards/internal/rdma"
	"cards/internal/remote"
)

const (
	// chaseObjSize is a cache-line-ish list node: a payload word at
	// offset 0 and the tagged far pointer to the successor at offset 8.
	chaseObjSize = 64
	chaseNextOff = 8
	// chaseRingObjs is the chain length; the walk wraps around the ring
	// so any walk length exercises the same working set.
	chaseRingObjs = 4096
	// chaseNetLatency is injected before every server-side socket read
	// (one per request frame here: both modes are closed loops, and the
	// server reads a whole frame per read). Loopback alone is CPU-bound
	// and would hide exactly the RTT that server-side traversal
	// amortises across a whole path.
	chaseNetLatency = 200 * time.Microsecond
	chaseDS         = 1
)

// chaseDepths is the hop-budget sweep: one CHASEBATCH round trip
// returns up to this many dependent hops.
var chaseDepths = []int{2, 4, 8, 16, 32, 64}

// Chase measures dependent pointer chasing over a real TCP loopback
// connection with injected per-request service latency: the per-hop
// baseline pays one READ round trip per object (pipelining cannot help
// — each hop's address is inside the previous hop's bytes), while the
// offloaded mode ships a traversal program to the server and gets the
// whole window's path back in one CHASEBATCH round trip.
func Chase(cfg Config) (*Table, error) {
	walk := int(cfg.ChaseWalk)
	if walk <= 0 {
		walk = 1024
	}

	srv := remote.NewServer()
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		return faultnet.Wrap(c, faultnet.Config{Latency: chaseNetLatency, Seed: 1})
	}
	seedChaseRing(srv)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("chase: listen: %w", err)
	}
	defer srv.Close()

	perhop, err := runChasePerHop(addr, walk)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID: "chase",
		Title: fmt.Sprintf("Server-side traversal offload vs per-hop pointer chasing, %d hops x %dB, %v injected RTT",
			walk, chaseObjSize, chaseNetLatency),
		Header: []string{"mode", "hop budget", "hops/s", "round trips", "vs per-hop"},
	}
	perhopHps := perhop.perSec()
	row := func(mode, depth string, r *chaseResult) {
		t.Rows = append(t.Rows, []string{
			mode, depth,
			fmt.Sprintf("%.0f", r.perSec()),
			fmt.Sprintf("%d", r.rtts),
			ratio(r.perSec() / perhopHps),
		})
	}
	row("per-hop", "-", perhop)
	for _, depth := range chaseDepths {
		r, err := runChaseOffload(addr, walk, depth)
		if err != nil {
			return nil, err
		}
		if r.sum != perhop.sum {
			return nil, fmt.Errorf("chase: offload depth %d checksum %#x != per-hop %#x", depth, r.sum, perhop.sum)
		}
		row("offload", fmt.Sprintf("%d", depth), r)
	}
	t.Notes = append(t.Notes,
		"wall-clock over real sockets; per-hop issues one dependent READ per object, offload one CHASEBATCH per hop-budget window",
		"both modes walk the same ring and their payload checksums are cross-checked byte-for-byte",
		"the speedup ceiling is the hop budget itself: each window collapses that many serial round trips into one")
	return t, nil
}

type chaseResult struct {
	hops    int
	rtts    int
	sum     uint64
	elapsed time.Duration
}

func (r *chaseResult) perSec() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.hops) / r.elapsed.Seconds()
}

// seedChaseRing writes the chain: object i's payload word at offset 0
// and a tagged far pointer at chaseNextOff to object (i+1) mod ring.
func seedChaseRing(srv *remote.Server) {
	buf := make([]byte, chaseObjSize)
	for i := 0; i < chaseRingObjs; i++ {
		for j := range buf {
			buf[j] = 0
		}
		binary.LittleEndian.PutUint64(buf[0:8], chaseVal(i))
		next := (i + 1) % chaseRingObjs
		addr := uint64(1)<<63 | uint64(chaseDS)<<48 | uint64(next)*chaseObjSize
		binary.LittleEndian.PutUint64(buf[chaseNextOff:chaseNextOff+8], addr)
		srv.Store.Write(chaseDS, uint32(i), buf)
	}
}

func chaseVal(i int) uint64 {
	return uint64(i)*0x9E3779B97F4A7C15 + 1
}

func runChasePerHop(addr string, walk int) (*chaseResult, error) {
	c, err := remote.DialPipelined(addr, remote.PipelineOpts{})
	if err != nil {
		return nil, fmt.Errorf("chase: dial: %w", err)
	}
	defer c.Close()

	buf := make([]byte, chaseObjSize)
	r := &chaseResult{hops: walk}
	idx := 0
	start := time.Now()
	for n := 0; n < walk; n++ {
		if err := c.ReadObj(chaseDS, idx, buf); err != nil {
			return nil, fmt.Errorf("chase: per-hop read %d: %w", n, err)
		}
		r.rtts++
		r.sum += binary.LittleEndian.Uint64(buf[0:8])
		word := binary.LittleEndian.Uint64(buf[chaseNextOff : chaseNextOff+8])
		idx = int(rdma.ChaseAddrOff(word) / chaseObjSize)
	}
	r.elapsed = time.Since(start)
	return r, nil
}

func runChaseOffload(addr string, walk, depth int) (*chaseResult, error) {
	c, err := remote.DialPipelined(addr, remote.PipelineOpts{})
	if err != nil {
		return nil, fmt.Errorf("chase: dial: %w", err)
	}
	defer c.Close()
	r := &chaseResult{}
	idx := 0
	start := time.Now()
	for r.hops < walk {
		hops := depth
		if rem := walk - r.hops; rem < hops {
			hops = rem
		}
		res, err := c.Chase(rdma.ChaseReq{
			DS:      chaseDS,
			Start:   uint32(idx),
			ObjSize: chaseObjSize,
			NextOff: chaseNextOff,
			Hops:    uint32(hops),
		})
		if err != nil {
			return nil, fmt.Errorf("chase: offload window at hop %d: %w", r.hops, err)
		}
		if len(res.Hops) == 0 || res.Status != rdma.ChaseHops {
			return nil, fmt.Errorf("chase: window at hop %d stalled (status %d, %d hops) — the ring has no terminal", r.hops, res.Status, len(res.Hops))
		}
		r.rtts++
		for _, h := range res.Hops {
			r.sum += binary.LittleEndian.Uint64(h.Data[0:8])
		}
		r.hops += len(res.Hops)
		idx = int(rdma.ChaseAddrOff(res.Final) / chaseObjSize)
	}
	r.elapsed = time.Since(start)
	return r, nil
}
