package bench

import (
	"bytes"
	"flag"
	"path/filepath"
	"sync"
	"testing"

	"cards/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/paper_quick.golden from this build")

// paperIDs are the paper's own artifacts: virtual-time experiments whose
// every cell is a deterministic function of the cost model, the compiler
// passes, the runtime and the interpreter.
var paperIDs = []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}

var paper struct {
	once   sync.Once
	tables map[string]*Table
	err    error
}

// paperTable returns one paper artifact at Quick() scale. All seven are
// rendered once per test binary and shared by the shape tests and the
// golden test.
func paperTable(t *testing.T, id string) *Table {
	t.Helper()
	paper.once.Do(func() {
		paper.tables = make(map[string]*Table)
		for _, id := range paperIDs {
			exp, _ := ByID(id)
			tab, err := exp.Run(Quick())
			if err != nil {
				paper.err = err
				return
			}
			paper.tables[id] = tab
		}
	})
	if paper.err != nil {
		t.Fatal(paper.err)
	}
	return paper.tables[id]
}

// TestPaperTablesArePinned byte-compares Table 1 and Figures 4-9 against
// the rendering recorded from the build before the interpreter and the
// prefetch hit path were rebuilt. The shape tests accept any number that
// keeps the paper's orderings; this one catches a one-cycle drift. A
// failure means virtual time moved: that is a behaviour change, not a
// golden to refresh (-update-golden exists for a deliberate one).
func TestPaperTablesArePinned(t *testing.T) {
	var got bytes.Buffer
	for _, id := range paperIDs {
		if err := paperTable(t, id).JSON(&got); err != nil {
			t.Fatal(err)
		}
	}
	testutil.Golden(t, filepath.Join("testdata", "paper_quick.golden"), got.Bytes(), *updateGolden)
}
