// Package bench regenerates every table and figure of the paper's
// evaluation (§5) on the reproduction stack:
//
//	Table 1  — primitive guard/fault costs, CaRDS vs TrackFM
//	Figure 4 — remoting policies on Listing 1 at k=50%
//	Figure 5 — remoting policies × k for BFS
//	Figure 6 — remoting policies × k for the analytics workload
//	Figure 7 — remoting policies × k for ftfdapml
//	Figure 8 — CaRDS vs TrackFM vs Mira across local memory
//	Figure 9 — per-structure prefetch speedup vs TrackFM
//
// Each experiment returns a Table whose rows mirror what the paper
// plots; absolute numbers differ (simulated substrate, scaled working
// sets — see DESIGN.md) but the comparisons are the reproduction target.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"cards/internal/obs"
)

// Table is one experiment's output.
type Table struct {
	ID     string // "table1", "fig4", ...
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "*%s*\n\n", n)
	}
}

// Config scales the experiments. Working sets shrink by ~2^6..2^8 from
// the paper's multi-GB sizes so every figure regenerates in seconds; the
// local-memory *fractions* driving the comparisons are preserved.
type Config struct {
	// Analytics scale (paper: 165M trips / 31 GB working set).
	TaxiTrips int64
	HotPasses int64
	// ftfdapml scale (paper: 8 GB working set).
	FDTDSize  int64
	FDTDSteps int64
	// BFS scale (paper: 1.2 GB working set).
	BFSVertices int64
	BFSDegree   int64
	BFSTrials   int64
	// Figure 9 scale (paper: 7 GB working set).
	ChaseN int64
	// PipelineReads is the number of remote reads per client in the
	// pipeline-depth sweep (real TCP loopback, wall-clock).
	PipelineReads int64
	// WritebackWrites is the length of the dirty walk in the write-back
	// sweep (real TCP loopback, wall-clock).
	WritebackWrites int64
	// ChaseWalk is the number of dependent hops walked per mode in the
	// traversal-offload sweep (real TCP loopback, wall-clock).
	ChaseWalk int64
	// Chaos, when non-empty, routes the pipeline sweep through a fault
	// proxy with this schedule spec (see faultnet.ParseSpec) and dials
	// the clients with deadlines + retry/reconnect enabled.
	Chaos string
	// Seed drives data generation and the Random policy.
	Seed int64

	// Obs, when non-nil, is a shared metric registry every experiment
	// run publishes into (latency histograms accumulate across runs;
	// counters reflect the last run that published them).
	Obs *obs.Registry
	// Tracer, when non-nil, receives runtime events from every run into
	// one bounded ring for Chrome-trace export (-trace-out).
	Tracer *obs.Tracer
}

// Quick returns the configuration used by unit tests and testing.B
// benchmarks: small enough for CI, large enough that the paper's
// comparisons still hold directionally.
func Quick() Config {
	return Config{
		TaxiTrips: 1 << 11, HotPasses: 4,
		FDTDSize: 8, FDTDSteps: 2,
		BFSVertices: 512, BFSDegree: 6, BFSTrials: 2,
		ChaseN:          4096,
		PipelineReads:   1024,
		WritebackWrites: 512,
		ChaseWalk:       1024,
		Seed:            42,
	}
}

// Default returns the cardsbench CLI configuration (~seconds per figure).
func Default() Config {
	return Config{
		TaxiTrips: 1 << 14, HotPasses: 6,
		FDTDSize: 16, FDTDSteps: 3,
		BFSVertices: 2048, BFSDegree: 8, BFSTrials: 3,
		ChaseN:          16384,
		PipelineReads:   8192,
		WritebackWrites: 2048,
		ChaseWalk:       4096,
		Seed:            42,
	}
}

// All runs every experiment and prints the tables to w.
func All(cfg Config, w io.Writer) error {
	for _, exp := range Experiments() {
		t, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("bench %s: %w", exp.ID, err)
		}
		t.Fprint(w)
	}
	return nil
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID    string
	Paper string // what the paper artifact shows
	Run   func(Config) (*Table, error)
}

// Experiments lists every regenerable artifact in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Primitive guard/fault overheads (median cycles, 100 trials)", Table1},
		{"fig4", "Remoting policies on Listing 1, k=50%", Fig4},
		{"fig5", "Remoting policies × k, BFS", Fig5},
		{"fig6", "Remoting policies × k, analytics", Fig6},
		{"fig7", "Remoting policies × k, ftfdapml", Fig7},
		{"fig8", "CaRDS vs TrackFM vs Mira across local memory, analytics", Fig8},
		{"fig9", "Prefetch speedup over TrackFM per data structure", Fig9},
		{"ablation", "Design-choice ablations (beyond the paper)", Ablation},
		{"hybrid", "Hybrid policy extension vs Mira (beyond the paper)", HybridExp},
		{"netsweep", "Network sensitivity sweep (beyond the paper)", NetSweep},
		{"guards", "Dynamic guard check census (paper §5.1 claim)", GuardCensus},
		{"pipeline", "Pipelined remote reads × window depth, TCP loopback (beyond the paper)", Pipeline},
		{"shard", "Sharded far-tier read bandwidth × backend count, TCP loopback (beyond the paper)", Shard},
		{"writeback", "Sync vs async batched dirty write-back, TCP loopback with injected RTT (beyond the paper)", Writeback},
		{"replica", "Replicated far-tier write amplification + failover latency, TCP loopback with injected RTT (beyond the paper)", Replica},
		{"chase", "Server-side traversal offload vs per-hop pointer chasing, TCP loopback with injected RTT (beyond the paper)", Chase},
		{"wire", "Bytes-on-wire and throughput across the compact/compression/range-writeback ladder, bandwidth-shaped TCP loopback (beyond the paper)", Wire},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func secs(s float64) string  { return fmt.Sprintf("%.4f", s) }
func ratio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// JSON renders the table as a JSON object (machine consumption: CI
// trend tracking, plotting scripts).
func (t *Table) JSON(w io.Writer) error {
	type payload struct {
		ID     string     `json:"id"`
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Notes  []string   `json:"notes,omitempty"`
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(payload{
		ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes,
	})
}
