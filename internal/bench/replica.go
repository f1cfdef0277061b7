package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/obs"
	"cards/internal/remote"
	"cards/internal/replica"
)

// replicaFleet is the backend count every row runs against; only the
// replication factor varies, so the R=1 row is the same fleet without
// redundancy, not a smaller one.
const replicaFleet = 3

// replicaCounts sweeps the group size: unreplicated baseline, the
// default R=2, and the full three-way group.
var replicaCounts = []int{1, 2, 3}

// replicaObjs is the striped working set per run.
const replicaObjs = 256

// replicaNetLatency is injected before every server-side socket read
// (once per request frame, or per burst of them under load), the same
// RTT-dominant regime the shard sweep measures in — fan-out cost and
// failover hiccups are both invisible on raw loopback.
const replicaNetLatency = 200 * time.Microsecond

// replicaKillAfter / replicaReadFor frame the failover measurement: a
// serial read loop against one object, its primary killed partway
// through, with the worst post-kill read latency reported — that single
// op is the one that rode through the promotion.
const (
	replicaKillAfter = 150 * time.Millisecond
	replicaReadFor   = 600 * time.Millisecond
)

// Replica measures what replication costs on the write path and what
// it buys on the read path: dirty-write throughput at R=1/2/3 over the
// same three-backend fleet (amplification = backend sub-writes per
// client write), and for R>1 the observed failover latency when the
// measured object's primary is killed mid-read-stream — no operation
// fails, one of them just pays the promotion.
func Replica(cfg Config) (*Table, error) {
	writes := int(cfg.WritebackWrites) * 2
	if writes <= 0 {
		writes = 1024
	}

	t := &Table{
		ID: "replica",
		Title: fmt.Sprintf("Replicated far-tier write cost and failover, %d writes x %dB, %d backends",
			writes, pipelineObjSize, replicaFleet),
		Header: []string{"replicas", "amplification", "writes/s", "vs R=1", "failover (ms)"},
	}
	var base time.Duration
	for _, r := range replicaCounts {
		d, amp, failover, err := runReplicated(r, writes, pipelineObjSize)
		if err != nil {
			return nil, err
		}
		if r == 1 {
			base = d
		}
		fo := "-"
		if r > 1 {
			fo = fmt.Sprintf("%.1f", float64(failover.Microseconds())/1000)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", r),
			fmt.Sprintf("%.2f", amp),
			fmt.Sprintf("%.0f", float64(writes)/d.Seconds()),
			ratio(base.Seconds() / d.Seconds()),
			fo,
		})
	}
	t.Notes = append(t.Notes,
		"same 3-backend fleet on every row; each object lives on its top-R rendezvous-ranked backends, writes ack at W=1",
		fmt.Sprintf("each backend connection carries %v injected service latency per op (faultnet)", replicaNetLatency),
		"amplification = backend sub-writes per client write (gated-out members are skipped, so it can undershoot R)",
		"failover = worst single-read latency after the measured object's primary is killed mid-stream; the read fails over, it does not fail")
	return t, nil
}

// runReplicated starts the fleet, times `writes` async replicated
// writes, then (for R>1) kills the measured object's primary under a
// serial read loop and reports the worst post-kill read.
func runReplicated(r, writes, objSize int) (d time.Duration, amp float64, failover time.Duration, err error) {
	servers := make([]*remote.Server, replicaFleet)
	backends := make([]farmem.Store, replicaFleet)
	for i := 0; i < replicaFleet; i++ {
		srv := remote.NewServer()
		seed := int64(i + 1)
		srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
			return faultnet.Wrap(c, faultnet.Config{Latency: replicaNetLatency, Seed: seed})
		}
		addr, lerr := srv.Listen("127.0.0.1:0")
		if lerr != nil {
			return 0, 0, 0, fmt.Errorf("replica: listen: %w", lerr)
		}
		defer srv.Close()
		servers[i] = srv
		c, derr := remote.DialPipelined(addr, remote.PipelineOpts{
			Timeout:   250 * time.Millisecond,
			RetryMax:  1,
			RetryBase: time.Millisecond,
			RetryCap:  10 * time.Millisecond,
			Window:    8,
			MaxBatch:  4,
		})
		if derr != nil {
			return 0, 0, 0, fmt.Errorf("replica: dial backend %d: %w", i, derr)
		}
		backends[i] = c
	}
	reg := obs.NewRegistry()
	rs, rerr := replica.New(backends, replica.Options{
		Replicas:         r,
		BreakerThreshold: 4,
		ProbeEvery:       20 * time.Millisecond,
		Obs:              reg,
	})
	if rerr != nil {
		return 0, 0, 0, rerr
	}
	defer rs.Close() // closes the clients (io.Closer backends)

	// Timed write sweep: per-slot source buffers sized to the window so
	// a completion never races a reissue of the same slot.
	dsts := make([][]byte, 64)
	for i := range dsts {
		dsts[i] = make([]byte, objSize)
		for j := range dsts[i] {
			dsts[i][j] = byte(i + j)
		}
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
	)
	wg.Add(writes)
	start := time.Now()
	for i := 0; i < writes; i++ {
		rs.IssueWrite(0, i%replicaObjs, dsts[i%len(dsts)], func(err error) {
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
	wg.Wait()
	d = time.Since(start)
	if firstEr != nil {
		return 0, 0, 0, fmt.Errorf("replica: R=%d write sweep: %w", r, firstEr)
	}
	snap := reg.Snapshot()
	sub := uint64(0)
	for i := 0; i < replicaFleet; i++ {
		sub += snap.Counters[obs.Key(replica.MetricReplicaWrites, "backend", fmt.Sprintf("%d", i))]
	}
	amp = float64(sub) / float64(writes)

	if r == 1 {
		return d, amp, 0, nil
	}

	// Failover: serial reads of one object while its primary dies.
	var gbuf [replica.MaxReplicas]int
	primary := rs.GroupOf(0, 0, gbuf[:0])[0]
	go func() {
		time.Sleep(replicaKillAfter)
		servers[primary].Drain(10 * time.Millisecond)
	}()
	dst := make([]byte, objSize)
	killAt := start.Add(d + replicaKillAfter)
	for stop := time.Now().Add(replicaReadFor); time.Now().Before(stop); {
		t0 := time.Now()
		if rerr := rs.ReadObj(0, 0, dst); rerr != nil {
			return 0, 0, 0, fmt.Errorf("replica: R=%d read during failover: %w", r, rerr)
		}
		if lat := time.Since(t0); t0.After(killAt) && lat > failover {
			failover = lat
		}
	}
	return d, amp, failover, nil
}
