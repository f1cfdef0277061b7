package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/remote"
	"cards/internal/shardmap"
)

// shardCounts is the backend sweep: single-backend baseline up to the
// four-way fleet the acceptance target (≥1.8x aggregate read bandwidth)
// is measured at.
var shardCounts = []int{1, 2, 3, 4}

// shardWindow is the per-shard in-flight window. It is deliberately
// modest: with a small fixed window each connection is latency-bound,
// so adding backends adds in-flight capacity — the scaling the sweep is
// after. (The pipeline sweep covers per-connection depth scaling.)
const shardWindow = 4

// shardObjs is the striped working set per run; large enough that HRW
// spreads it near-evenly over four shards.
const shardObjs = 256

// shardNetLatency is injected into every server-side Read via the
// faultnet wrapper (one Read per burst of request frames), standing in
// for the far tier's network round trip.
// Raw loopback is CPU-bound (a single-core box serializes client and
// servers, flattening the sweep); with a real per-connection service
// latency each backend's wait overlaps the others', which is exactly
// the RTT-dominant regime sharding exists for.
const shardNetLatency = 200 * time.Microsecond

// Shard measures aggregate remote read bandwidth of the sharded store
// over 1→4 in-process backends, each behind its own pipelined client
// with a fixed per-shard window. Like the pipeline sweep it runs on
// wall-clock time over real TCP loopback sockets.
func Shard(cfg Config) (*Table, error) {
	reads := int(cfg.PipelineReads) * 2
	if reads <= 0 {
		reads = 2048
	}

	t := &Table{
		ID: "shard",
		Title: fmt.Sprintf("Sharded far-tier read bandwidth, %d reads x %dB, window %d/shard",
			reads, pipelineObjSize, shardWindow),
		Header: []string{"backends", "reads/s", "MB/s", "vs 1 backend"},
	}
	var base time.Duration
	for _, n := range shardCounts {
		d, err := runSharded(n, reads, pipelineObjSize)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			base = d
		}
		rps := float64(reads) / d.Seconds()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", rps),
			fmt.Sprintf("%.1f", rps*pipelineObjSize/1e6),
			ratio(base.Seconds() / d.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"objects striped across backends by rendezvous hashing; reads fan out on per-shard pipelined connections",
		fmt.Sprintf("each backend connection carries %v injected service latency per read (faultnet), modeling the RTT-dominant far-memory regime; backends overlap those waits", shardNetLatency),
		fmt.Sprintf("fixed window of %d per shard: one shard's full window never stalls the others", shardWindow))
	return t, nil
}

// runSharded starts n in-process servers, stripes the working set over
// them through a ShardedStore, and times `reads` async reads issued
// through the store — one issuer goroutine per shard, so a full window
// on one backend never blocks issue to the others.
func runSharded(n, reads, objSize int) (time.Duration, error) {
	servers := make([]*remote.Server, n)
	backends := make([]farmem.Store, n)
	for i := 0; i < n; i++ {
		srv := remote.NewServer()
		seed := int64(i + 1)
		srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
			return faultnet.Wrap(c, faultnet.Config{Latency: shardNetLatency, Seed: seed})
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return 0, fmt.Errorf("shard: listen: %w", err)
		}
		defer srv.Close()
		servers[i] = srv
		c, err := remote.DialPipelined(addr, remote.PipelineOpts{Window: shardWindow})
		if err != nil {
			return 0, fmt.Errorf("shard: dial backend %d: %w", i, err)
		}
		defer c.Close()
		backends[i] = c
	}
	ss, err := shardmap.NewSharded(backends, shardmap.Options{})
	if err != nil {
		return 0, err
	}
	// Backends are closed by the deferred client Close calls above.

	// Seed each object directly on its owning backend — the placement the
	// sharded store will route reads by. Seeding bypasses the injected
	// read latency only in batching: writes ride the same wrapped conns.
	buf := make([]byte, objSize)
	for i := 0; i < shardObjs; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		if err := ss.WriteObj(0, i, buf); err != nil {
			return 0, fmt.Errorf("shard: seed: %w", err)
		}
	}

	// Partition the read sequence by owning shard up front. IssueRead on
	// a full pipelined window blocks (self-pacing), so a single issuer
	// would serialize the fleet on whichever shard fills first; one
	// issuer per shard keeps every window full independently.
	ops := make([][]int, n)
	for i := 0; i < reads; i++ {
		obj := i % shardObjs
		s := ss.ShardOf(0, obj)
		ops[s] = append(ops[s], obj)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	wg.Add(reads)
	start := time.Now()
	for s := 0; s < n; s++ {
		// Per-slot destination buffers per shard, enough that completions
		// never race a reissue of the same slot within the window.
		dsts := make([][]byte, shardWindow*4)
		for i := range dsts {
			dsts[i] = make([]byte, objSize)
		}
		go func(objs []int, dsts [][]byte) {
			for k, obj := range objs {
				ss.IssueRead(0, obj, dsts[k%len(dsts)], func(err error) {
					if err != nil {
						mu.Lock()
						if firstEr == nil {
							firstEr = err
						}
						mu.Unlock()
					}
					wg.Done()
				})
			}
		}(ops[s], dsts)
	}
	wg.Wait()
	d := time.Since(start)
	if firstEr != nil {
		return 0, fmt.Errorf("shard: %d backends: %w", n, firstEr)
	}
	return d, nil
}
