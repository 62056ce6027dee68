package exp

import (
	"runtime"
	"strings"
	"testing"
)

func TestRegistryCoversPaper(t *testing.T) {
	want := []string{"fig1", "table2", "table3", "fig4a", "fig4b", "fig4c", "fig4d",
		"fig5", "fig6a", "fig6b", "fig7", "fig8", "fig10", "fig11", "fig12bc", "fig12d",
		"headline", "ext-sched"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Fatalf("registry[%d] = %s want %s", i, reg[i].ID, id)
		}
		if reg[i].Title == "" || reg[i].Paper == "" || reg[i].Run == nil {
			t.Fatalf("registry entry %s incomplete", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig1"); !ok {
		t.Fatal("fig1 missing")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("found nonexistent experiment")
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}, Notes: "note"}
	tb.AddRow("1", "2")
	out := tb.Render()
	for _, want := range []string{"== x: T ==", "a", "bb", "1", "2", "-- note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScaleString(t *testing.T) {
	if Quick.String() != "quick" || Standard.String() != "standard" ||
		FullScale.String() != "full" || Scale(9).String() != "unknown" {
		t.Fatal("scale names wrong")
	}
}

// checkTables verifies an experiment produced non-empty, well-formed tables.
func checkTables(t *testing.T, id string, tables []*Table) {
	t.Helper()
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 {
			t.Fatalf("%s table %q has no rows", id, tb.Title)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Header) {
				t.Fatalf("%s table %q ragged row %v vs header %v", id, tb.Title, row, tb.Header)
			}
		}
		if tb.Render() == "" {
			t.Fatalf("%s empty render", id)
		}
	}
}

// Cheap experiments run individually for clearer failures.

func TestFig1Quick(t *testing.T) {
	tables, err := runFig1(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "fig1", tables)
	// Some mass must exist beyond 2x slowdown (log2 > 1 = bins >= 3).
	total := 0
	for bi, row := range tables[0].Rows {
		_ = bi
		for _, c := range row[1:] {
			if c != "0" {
				total++
			}
		}
	}
	if total == 0 {
		t.Fatal("histogram entirely empty")
	}
}

func TestTables23(t *testing.T) {
	tables, err := runTable2(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "table2", tables)
	if len(tables[0].Rows) != 24 {
		t.Fatalf("table2 rows = %d", len(tables[0].Rows))
	}
	tables, err = runTable3(Quick, 1)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "table3", tables)
	if len(tables[0].Rows) != 10 {
		t.Fatalf("table3 rows = %d", len(tables[0].Rows))
	}
}

// The training-based experiments are expensive; run a representative
// subset at Quick scale unless -short.

func TestFig4aQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tables, err := runFig4a(Quick, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "fig4a", tables)
	if len(tables) != 2 {
		t.Fatalf("want iso+interf tables, got %d", len(tables))
	}
}

func TestFig5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tables, err := runFig5(Quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "fig5", tables)
}

func TestFig7Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tables, err := runFig7(Quick, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "fig7", tables)
}

func TestFig12dQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tables, err := runFig12d(Quick, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "fig12d", tables)
}

func TestHeadlineQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	if raceEnabled {
		t.Skip("full baseline sweep exceeds the package timeout under the race detector; engine concurrency is race-tested in core and autodiff")
	}
	tables, err := runHeadline(Quick, 6)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "headline", tables)
	if len(tables[0].Rows) != 4 {
		t.Fatalf("headline rows = %d (want pitot + 3 baselines)", len(tables[0].Rows))
	}
}

func TestChanceLevel(t *testing.T) {
	// Two labels, 2 members each of 4: chance = 2 * (0.5 * 1/3) = 1/3.
	got := chanceLevel([]string{"a", "a", "b", "b"})
	if diff := got - 1.0/3; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("chanceLevel = %v want 1/3", got)
	}
}

func TestPerplexityFor(t *testing.T) {
	if perplexityFor(4) != 2 || perplexityFor(200) != 20 || perplexityFor(40) != 10 {
		t.Fatal("perplexity clamping wrong")
	}
}

func TestExtSchedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tables, err := runExtSched(Quick, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkTables(t, "ext-sched", tables)
	if len(tables[0].Rows) != 3 {
		t.Fatalf("ext-sched rows = %d (want 3 policies)", len(tables[0].Rows))
	}
	// The experiment's predictor is scalar-only, so these rows pin the
	// scheduler's scalar adapter on a trained model. Recorded on amd64;
	// other architectures may fuse multiply-add in training.
	if runtime.GOARCH != "amd64" {
		return
	}
	want := [][]string{
		{"mean", "48", "0", "8.2%", "40.7%"},
		{"mean*1.3", "48", "0", "0.1%", "49.2%"},
		{"bound(eps=0.10)", "48", "0", "0.5%", "44.8%"},
	}
	for i, row := range tables[0].Rows {
		if strings.Join(row, "/") != strings.Join(want[i], "/") {
			t.Errorf("ext-sched row %d = %v, want %v", i, row, want[i])
		}
	}
}
