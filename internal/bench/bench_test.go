package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// cellF parses a numeric table cell (ignoring trailing units like "x").
func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(tab.Rows[row][col], "x"), "K")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell [%d][%d] = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func rowByName(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if r[0] == name {
			return i
		}
	}
	t.Fatalf("no row %q in %s", name, tab.ID)
	return -1
}

func TestTable1Shape(t *testing.T) {
	tab := paperTable(t, "table1")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cardsLocalR := cellF(t, tab, 0, 1)
	cardsLocalW := cellF(t, tab, 1, 1)
	tfmLocalR := cellF(t, tab, 2, 1)
	tfmLocalW := cellF(t, tab, 3, 1)
	// Paper Table 1 orderings: CaRDS local faults cheaper than TrackFM
	// guards; local costs O(100s) of cycles.
	if cardsLocalR >= tfmLocalR || cardsLocalW >= tfmLocalW {
		t.Errorf("CaRDS local (%v/%v) should undercut TrackFM (%v/%v)",
			cardsLocalR, cardsLocalW, tfmLocalR, tfmLocalW)
	}
	if cardsLocalR < 300 || cardsLocalR > 500 {
		t.Errorf("CaRDS local read = %v, want ~378", cardsLocalR)
	}
	// Remote: CaRDS ~59K, TrackFM ~46-47K (in K units in the table).
	cardsRemote := cellF(t, tab, 0, 2)
	tfmRemote := cellF(t, tab, 2, 2)
	if cardsRemote < 50 || cardsRemote > 70 {
		t.Errorf("CaRDS remote = %vK, want ~59K", cardsRemote)
	}
	if tfmRemote >= cardsRemote {
		t.Errorf("TrackFM remote (%vK) should undercut CaRDS (%vK) per Table 1",
			tfmRemote, cardsRemote)
	}
}

func TestFig4MaxUsePinsHotStructure(t *testing.T) {
	tab := paperTable(t, "fig4")
	mu := rowByName(t, tab, "max-use")
	ar := rowByName(t, tab, "all-remotable")
	muTime := cellF(t, tab, mu, 1)
	arTime := cellF(t, tab, ar, 1)
	if muTime >= arTime {
		t.Errorf("max-use (%v) should beat all-remotable (%v)", muTime, arTime)
	}
	// Figure 4's point: the refined policy beats every naive policy.
	for _, name := range []string{"random", "max-reach", "linear"} {
		r := rowByName(t, tab, name)
		if muTime > cellF(t, tab, r, 1) {
			t.Errorf("max-use (%v) should be fastest, %s = %v",
				muTime, name, cellF(t, tab, r, 1))
		}
	}
}

func TestFig5LinearRobustOnBFS(t *testing.T) {
	tab := paperTable(t, "fig5")
	lin := rowByName(t, tab, "linear")
	ar := rowByName(t, tab, "all-remotable")
	// "The Linear policy consistently outperforms other policies" and is
	// flat across k (it ignores k); all-remotable is the worst curve.
	base := cellF(t, tab, lin, 1)
	for col := 1; col <= 4; col++ {
		lv := cellF(t, tab, lin, col)
		if lv != base {
			t.Errorf("linear should be k-invariant: col %d = %v vs %v", col, lv, base)
		}
		if av := cellF(t, tab, ar, col); av <= lv {
			t.Errorf("all-remotable (%v) should lose to linear (%v) at col %d", av, lv, col)
		}
	}
}

func TestFig6MaxUseStrongOnAnalytics(t *testing.T) {
	tab := paperTable(t, "fig6")
	mu := rowByName(t, tab, "max-use")
	ar := rowByName(t, tab, "all-remotable")
	for col := 1; col <= 4; col++ {
		if cellF(t, tab, mu, col) >= cellF(t, tab, ar, col) {
			t.Errorf("max-use should beat all-remotable at col %d", col)
		}
	}
}

func TestFig7SelectiveRemotingWins(t *testing.T) {
	tab := paperTable(t, "fig7")
	ar := rowByName(t, tab, "all-remotable")
	arTime := cellF(t, tab, ar, 2)
	// Paper: Linear/MaxReach reach ~4x over all-remotable on ftfdapml;
	// we require at least 1.5x for the best policy at k=50.
	best := arTime
	for _, name := range []string{"linear", "max-reach", "max-use"} {
		if v := cellF(t, tab, rowByName(t, tab, name), 2); v < best {
			best = v
		}
	}
	if arTime/best < 1.5 {
		t.Errorf("best policy speedup = %.2fx, want >= 1.5x over all-remotable", arTime/best)
	}
}

func TestFig8Shape(t *testing.T) {
	tab := paperTable(t, "fig8")
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		cds := cellF(t, tab, i, 1)
		tfm := cellF(t, tab, i, 2)
		if cds >= tfm {
			t.Errorf("row %d: CaRDS (%v) should consistently beat TrackFM (%v)", i, cds, tfm)
		}
	}
	// Mira overtakes CaRDS as memory grows: the CaRDS/Mira gap at 100%
	// local memory must be wider than at 25%.
	gapLow := cellF(t, tab, 0, 1) / cellF(t, tab, 0, 3)
	gapHigh := cellF(t, tab, 3, 1) / cellF(t, tab, 3, 3)
	if gapHigh <= gapLow {
		t.Errorf("Mira should pull ahead with more memory: gap 25%%=%.2f vs 100%%=%.2f",
			gapLow, gapHigh)
	}
}

func TestFig9PointerChasersFavourCaRDS(t *testing.T) {
	tab := paperTable(t, "fig9")
	speedups := map[string]float64{}
	for i, r := range tab.Rows {
		speedups[r[0]] = cellF(t, tab, i, 3)
	}
	// Paper: CaRDS consistently outperforms TrackFM; arrays benefit
	// least (they run well even on TrackFM). The tree is our extension
	// beyond the paper's suite and is exempt: one-hop greedy prefetch
	// cannot hide serial chain latency on random BST lookups (see
	// EXPERIMENTS.md).
	for kind, s := range speedups {
		if kind == "tree" {
			continue
		}
		if s < 0.95 {
			t.Errorf("%s: CaRDS slower than TrackFM (%.2fx)", kind, s)
		}
	}
	if speedups["list"] <= 1.1 && speedups["tree"] <= 1.1 {
		t.Errorf("pointer chasers should show clear wins: list=%.2f tree=%.2f",
			speedups["list"], speedups["tree"])
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablation", "hybrid", "netsweep", "guards", "pipeline", "shard", "writeback", "replica", "chase", "wire"}
	if got := len(Experiments()); got != len(ids) {
		t.Fatalf("experiments = %d, want %d", got, len(ids))
	}
	for _, id := range ids {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should reject unknown ids")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows:  [][]string{{"1", "2"}},
		Notes: []string{"n"},
	}
	var txt, md bytes.Buffer
	tab.Fprint(&txt)
	tab.Markdown(&md)
	for _, want := range []string{"== x: T ==", "a", "1", "note: n"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text output missing %q:\n%s", want, txt.String())
		}
	}
	for _, want := range []string{"### x — T", "| a | b |", "| 1 | 2 |", "*n*"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown output missing %q:\n%s", want, md.String())
		}
	}
}

func TestDeterministicExperiments(t *testing.T) {
	a := paperTable(t, "fig4")
	b, err := Fig4(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("fig4 not deterministic at [%d][%d]: %q vs %q",
					i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}

func TestAblationShapes(t *testing.T) {
	tab, err := Ablation(Quick())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range tab.Rows {
		rows[r[0]] = r
	}
	get := func(name string, col int) float64 {
		r, ok := rows[name]
		if !ok {
			t.Fatalf("missing variant %q", name)
		}
		var v float64
		fmt.Sscanf(r[col], "%f", &v)
		return v
	}
	// Versioning pays off when everything is local.
	if get("no code versioning", 1) <= get("full CaRDS", 1) {
		t.Error("removing code versioning should slow the all-pinned run")
	}
	// RGE and prefetching pay off on the constrained list traversal.
	if get("no redundant guard elimination", 3) <= get("full CaRDS", 3) {
		t.Error("removing RGE should slow the list sum")
	}
	if get("no prefetching", 3) <= get("full CaRDS", 3) {
		t.Error("removing prefetching should slow the list sum")
	}
	// Context-insensitive DSA merges Listing 1's structures and loses.
	if rows["context-insensitive DSA"][6] != "1" {
		t.Errorf("ctx-insensitive DSA found %s structures on Listing 1, want 1",
			rows["context-insensitive DSA"][6])
	}
	if rows["full CaRDS"][6] != "2" {
		t.Errorf("full DSA found %s structures on Listing 1, want 2", rows["full CaRDS"][6])
	}
	if get("context-insensitive DSA", 5) <= get("full CaRDS", 5) {
		t.Error("merged structures should defeat the Max Use policy on Listing 1")
	}
}

func TestHybridClosesHighMemoryGap(t *testing.T) {
	tab, err := HybridExp(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// At 100% local memory, hybrid must land much closer to Mira than
	// max-use does (that is the point of the extension).
	last := len(tab.Rows) - 1
	muGap := cellF(t, tab, last, 4)
	hyGap := cellF(t, tab, last, 5)
	if hyGap >= muGap {
		t.Errorf("hybrid/Mira gap at 100%% = %.2f should beat max-use's %.2f", hyGap, muGap)
	}
	if hyGap > 1.5 {
		t.Errorf("hybrid should be within 1.5x of Mira at 100%% memory, got %.2f", hyGap)
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	var buf bytes.Buffer
	if err := tab.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.ID != "x" || len(decoded.Rows) != 1 || decoded.Rows[0][0] != "1" {
		t.Fatalf("decoded = %+v", decoded)
	}
}
