package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"cards/internal/core"
	"cards/internal/farmem"
	"cards/internal/faultnet"
	"cards/internal/ir"
	"cards/internal/obs"
	"cards/internal/policy"
	"cards/internal/remote"
	"cards/internal/workloads"
)

const (
	// wireBandwidth is the simulated link capacity: every byte through
	// the server connection pays serialization delay at this rate, so
	// bytes saved on the wire convert directly into wall-clock time.
	wireBandwidth = 24 << 20 // 24 MiB/s
)

// wireMode is one rung of the wire-efficiency feature ladder.
type wireMode struct {
	name        string
	compression string
	rangeWB     bool
}

var wireModes = []wireMode{
	{"raw", "off", false},
	{"+lz", "", false},
	{"+lz+range", "", true},
}

// Wire measures bytes-on-wire per remote operation and end-to-end run
// time at a fixed simulated link bandwidth, across the wire-efficiency
// feature ladder: the bit-packed batch encoding shipping objects raw,
// plus adaptive per-object LZ compression, plus compiler-aided
// dirty-range write-back. Two compiled workloads cover the two traffic
// shapes: the analytics table scan (bulk column reads and writes,
// highly compressible ramp data) and the pointer chase (small dependent
// reads, header-dominated frames). Every rung's result is checked
// against the same module run on an in-process store: a reference with
// no wire in it.
func Wire(cfg Config) (*Table, error) {
	works := []struct {
		name  string
		build func() (*ir.Module, error)
	}{
		{"analytics", func() (*ir.Module, error) {
			return workloads.BuildTaxi(workloads.TaxiConfig{
				Trips: cfg.TaxiTrips, HotPasses: cfg.HotPasses, Seed: cfg.Seed}).Module, nil
		}},
		{"pointerchase", func() (*ir.Module, error) {
			w, err := workloads.BuildChase("list", workloads.ChaseConfig{N: cfg.ChaseN, Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			return w.Module, nil
		}},
	}

	t := &Table{
		ID: "wire",
		Title: fmt.Sprintf("Wire efficiency across the compression/range ladder, %d MiB/s simulated link",
			wireBandwidth>>20),
		Header: []string{"workload", "mode", "KB/op", "wire MB", "ops", "wall", "bytes vs raw", "tput vs raw"},
	}
	for _, w := range works {
		// The reference checksum has no wire in it: the same module over
		// an in-process map store.
		ref, _, err := wireRun(w.build, farmem.NewMapStore(), false)
		if err != nil {
			return nil, fmt.Errorf("wire %s/reference: %w", w.name, err)
		}
		want := ref.MainResult
		var raw *wireResult
		for _, mode := range wireModes {
			r, err := runWire(w.build, mode)
			if err != nil {
				return nil, fmt.Errorf("wire %s/%s: %w", w.name, mode.name, err)
			}
			if r.checksum != want {
				return nil, fmt.Errorf("wire %s/%s: checksum %#x != in-process %#x — the wire changed the program's result",
					w.name, mode.name, r.checksum, want)
			}
			if raw == nil {
				raw = r
			}
			t.Rows = append(t.Rows, []string{
				w.name, mode.name,
				fmt.Sprintf("%.2f", r.perOp()/1024),
				fmt.Sprintf("%.2f", float64(r.wireBytes)/(1<<20)),
				fmt.Sprintf("%d", r.ops),
				r.elapsed.Round(time.Millisecond).String(),
				ratio(raw.perOp() / r.perOp()),
				ratio(raw.elapsed.Seconds() / r.elapsed.Seconds()),
			})
		}
	}
	t.Notes = append(t.Notes,
		"every mode runs the same compiled workload to the checksum an in-process store gives; only the session options differ",
		"KB/op = total frame bytes both directions / (remote fetches + write-backs); wall-clock includes the final drain",
		fmt.Sprintf("the link serializes at %d MiB/s each way, so 'tput vs raw' tracks how much of the byte saving survives as end-to-end speedup", wireBandwidth>>20),
		"raw = Compression off (zero objects still elided); the rungs without range write-back run with the client's range verb hidden, so every eviction, store-once misses included, ships whole; range write-back additionally needs the compiler's guard spans, threaded here by the standard pass pipeline")
	return t, nil
}

// wireResult is one mode's measurement.
type wireResult struct {
	wireBytes uint64
	ops       uint64
	elapsed   time.Duration
	checksum  uint64
}

func (r *wireResult) perOp() float64 {
	if r.ops == 0 {
		return 0
	}
	return float64(r.wireBytes) / float64(r.ops)
}

// wireRun compiles a fresh module and runs it against store under the
// ladder's memory budget, timing the run alone.
func wireRun(build func() (*ir.Module, error), store farmem.Store, rangeWB bool) (*core.RunResult, time.Duration, error) {
	m, err := build()
	if err != nil {
		return nil, 0, err
	}
	c, err := core.Compile(m, core.CompileOptions{})
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	res, err := c.Run(core.RunConfig{
		Policy:          policy.AllRemotable,
		PinnedBudget:    0,
		RemotableBudget: 8 * 4096,
		Store:           store,
		RangeWriteback:  rangeWB,
	})
	return res, time.Since(start), err
}

// wholeObjects is the client with its range verb hidden: the runtime
// splices an unread object's logged stores whenever the store offers
// IssueWriteRanges, so the rungs without range write-back run over this
// to ship whole objects, as their names say.
type wholeObjects struct {
	wireStore
}

type wireStore interface {
	farmem.AsyncStore
	farmem.AsyncWriteStore
	farmem.AsyncChaseStore
	farmem.Pinger
}

// runWire executes one compiled workload over a fresh bandwidth-shaped
// server with the mode's session options and returns the traffic tally.
func runWire(build func() (*ir.Module, error), mode wireMode) (*wireResult, error) {
	srv := remote.NewServer()
	srv.ConnWrap = func(c io.ReadWriteCloser) io.ReadWriteCloser {
		return faultnet.Wrap(c, faultnet.Config{Bandwidth: wireBandwidth, Seed: 1})
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	cl, err := remote.DialPipelined(addr, remote.PipelineOpts{
		Obs:         reg,
		Compression: mode.compression,
	})
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	defer cl.Close()

	var store farmem.Store = cl
	if !mode.rangeWB {
		store = wholeObjects{cl}
	}
	res, elapsed, err := wireRun(build, store, mode.rangeWB)
	if err != nil {
		return nil, err
	}

	var wire uint64
	prefix := remote.MetricWireBytes + "{"
	for k, v := range reg.Snapshot().Counters {
		if k == remote.MetricWireBytes || strings.HasPrefix(k, prefix) {
			wire += v
		}
	}
	ops := res.Runtime.RemoteFetches
	for _, d := range res.PerDS {
		ops += d.WriteBacks
	}
	return &wireResult{wireBytes: wire, ops: ops, elapsed: elapsed, checksum: res.MainResult}, nil
}
