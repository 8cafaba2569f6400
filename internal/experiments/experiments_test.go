package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := e.Run(Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Fatalf("table ID %q, want %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), id) {
		t.Fatalf("render missing ID header:\n%s", buf.String())
	}
	return tab
}

// cell parses a numeric cell that may carry a trailing % sign.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s row %d col %d: %q not numeric", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

// rowOf returns the position of the row whose first cell is name.
func rowOf(t *testing.T, tab *Table, name string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if r[0] == name {
			return i
		}
	}
	t.Fatalf("%s has no row %q", tab.ID, name)
	return -1
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "A1", "A2", "A3", "A4", "A5"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	seen := map[string]bool{}
	for _, e := range all {
		seen[e.ID] = true
		if e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Errorf("%s: incomplete registration", e.ID)
		}
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("missing experiment %s", id)
		}
	}
	// Ordering: experiments before ablations, numeric within.
	if all[0].ID != "E1" || all[len(all)-1].ID != "A5" {
		t.Errorf("ordering wrong: first %s last %s", all[0].ID, all[len(all)-1].ID)
	}
	if _, err := Get("E99"); err == nil {
		t.Error("unknown ID resolved")
	}
}

func TestE1SpeedupShape(t *testing.T) {
	tab := runQuick(t, "E1")
	if len(tab.Rows) != zoo.Len() {
		t.Fatalf("%d rows, want %d models", len(tab.Rows), zoo.Len())
	}
	lo, hi := 99.0, 0.0
	for i := range tab.Rows {
		k80 := cell(t, tab, i, 1)
		v100 := cell(t, tab, i, 4)
		if k80 < 0.99 || k80 > 1.01 {
			t.Errorf("row %d: K80 speedup %v, want 1", i, k80)
		}
		if v100 < lo {
			lo = v100
		}
		if v100 > hi {
			hi = v100
		}
	}
	if lo > 1.5 || hi < 3.5 {
		t.Errorf("V100 speedup spread [%v, %v], want Table-1-like spread", lo, hi)
	}
}

func TestE2Composition(t *testing.T) {
	tab := runQuick(t, "E2")
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "total" || last[3] != "200" {
		t.Fatalf("total row = %v", last)
	}
}

func TestE3SingleServerFairness(t *testing.T) {
	tab := runQuick(t, "E3")
	for i := 0; i < 6; i++ {
		if sh := cell(t, tab, i, 2); sh < 14 || sh > 19.5 {
			t.Errorf("user %d share %v%%, want ≈16.7%%", i, sh)
		}
	}
	if jain := cell(t, tab, 6, 2); jain < 0.99 {
		t.Errorf("Jain = %v, want ≈1", jain)
	}
}

func TestE4GangAware(t *testing.T) {
	tab := runQuick(t, "E4")
	greedy, naive := rowOf(t, tab, "gang-aware (greedy)"), rowOf(t, tab, "naive-blocking")
	gaUtil := cell(t, tab, greedy, 1)
	naiveUtil := cell(t, tab, naive, 1)
	// Greedy pass-order packing of {8,4,2,1,1,1} onto 8 GPUs tops out
	// around ~75% (rounds where the 4-gang is skipped leave gaps);
	// naive blocking drops another ≥10 points by idling on the 8-gang.
	if gaUtil < 70 {
		t.Errorf("gang-aware utilization %v%%, want ≥70%%", gaUtil)
	}
	if naiveUtil > gaUtil-8 {
		t.Errorf("naive utilization %v%% not clearly worse than %v%%", naiveUtil, gaUtil)
	}
	if bigShare := cell(t, tab, greedy, 2); bigShare < 12 {
		t.Errorf("gang-aware big-job share %v%%, want no starvation (ideal 16.7%%)", bigShare)
	}
	if jain := cell(t, tab, greedy, 3); jain < 0.95 {
		t.Errorf("gang-aware Jain %v, want ≥0.95", jain)
	}
	// The engine rows are reported, not judged: FairPolicy starves the
	// 8-gang when its user sorts last (ROADMAP item 2), and the bar its
	// fix must meet is asserted with that fix.
	for _, mode := range []string{"engine, u8 sorts last", "engine, a8 sorts first"} {
		rowOf(t, tab, mode)
	}
}

func TestE5UserFairness(t *testing.T) {
	tab := runQuick(t, "E5")
	// Row 0 = gandiva-fair: both ≈50%.
	if m, b := cell(t, tab, 0, 1), cell(t, tab, 0, 2); m < 44 || m > 56 || b < 44 || b > 56 {
		t.Errorf("gandiva-fair shares %v/%v, want ≈50/50", m, b)
	}
	// Baselines hand the flooder much more.
	for i := 1; i < len(tab.Rows); i++ {
		if m := cell(t, tab, i, 1); m < 60 {
			t.Errorf("%s gives flooder %v%%, expected job-centric skew", tab.Rows[i][0], m)
		}
	}
}

func TestE6ShareError(t *testing.T) {
	tab := runQuick(t, "E6")
	if tab.Rows[0][0] != "gandiva-fair-no-trade" {
		t.Fatalf("row 0 = %v", tab.Rows[0][0])
	}
	fairErr := cell(t, tab, 0, 5)
	if fairErr > 6 {
		t.Errorf("gandiva-fair max share error %v%%, want ≤6%%", fairErr)
	}
	worstBaseline := 0.0
	for i := 1; i < len(tab.Rows); i++ {
		if e := cell(t, tab, i, 5); e > worstBaseline {
			worstBaseline = e
		}
	}
	if worstBaseline < 3*fairErr {
		t.Errorf("baselines' worst error %v%% vs fair %v%%: separation too small", worstBaseline, fairErr)
	}
}

func TestE7WorkConservation(t *testing.T) {
	tab := runQuick(t, "E7")
	// First window: a,b ≈50/50, c 0. Middle (after c arrives): c > 20%.
	if c0 := cell(t, tab, 0, 3); c0 > 1 {
		t.Errorf("c's share before arrival = %v%%", c0)
	}
	sawC := false
	for i := 1; i < len(tab.Rows); i++ {
		if c := cell(t, tab, i, 3); c > 20 {
			sawC = true
		}
	}
	if !sawC {
		t.Error("c never received a substantial share after arrival")
	}
	last := len(tab.Rows) - 1
	if c := cell(t, tab, last, 3); c > 5 {
		t.Errorf("c's share after departure = %v%%, want reclaimed", c)
	}
	if a := cell(t, tab, last, 1); a < 40 {
		t.Errorf("a's share after c departed = %v%%, want ≈50%%", a)
	}
}

func TestE8MigrationOverhead(t *testing.T) {
	tab := runQuick(t, "E8")
	// Per-model migration costs scale with checkpoint size; overhead
	// per 30-min residency stays below ~5%.
	for i := 0; i < zoo.Len(); i++ {
		if ov := cell(t, tab, i, 3); ov > 5 {
			t.Errorf("model row %d overhead %v%%, want ≤5%%", i, ov)
		}
	}
	// Measured end-to-end overhead in the trading run is small.
	meas := tab.Rows[len(tab.Rows)-1]
	ov, err := strconv.ParseFloat(strings.TrimSuffix(meas[3], "%"), 64)
	if err != nil || ov > 8 {
		t.Errorf("measured overhead = %v (%v), want ≤8%%", meas[3], err)
	}
}

func TestE9MigrationAblation(t *testing.T) {
	tab := runQuick(t, "E9")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	onFinished := cell(t, tab, 0, 1)
	offFinished := cell(t, tab, 1, 1)
	if onFinished < offFinished {
		t.Errorf("migration on finished %v < off %v", onFinished, offFinished)
	}
	if mig := cell(t, tab, 1, 5); mig != 0 {
		t.Errorf("migration-off run migrated %v times", mig)
	}
}

func TestE10TradingWinWin(t *testing.T) {
	tab := runQuick(t, "E10")
	memGain := cell(t, tab, 0, 3)
	denseGain := cell(t, tab, 1, 3)
	if memGain < 0.99 {
		t.Errorf("mem user gain %v, trading must not hurt", memGain)
	}
	if denseGain < 1.05 {
		t.Errorf("dense user gain %v, want ≥1.05", denseGain)
	}
}

func TestE11TradingAtScale(t *testing.T) {
	tab := runQuick(t, "E11")
	worst := cell(t, tab, len(tab.Rows)-2, 1)
	if worst < 0.98 {
		t.Errorf("worst-case trading gain %v, want ≥0.98 (no user loses)", worst)
	}
	// The dense-model user should gain noticeably.
	for i := range tab.Rows {
		if tab.Rows[i][0] == "dense" {
			if g := cell(t, tab, i, 1); g < 1.03 {
				t.Errorf("dense user gain %v, want ≥1.03", g)
			}
		}
	}
}

func TestE12EndToEnd(t *testing.T) {
	tab := runQuick(t, "E12")
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6 policies", len(tab.Rows))
	}
	byName := map[string]int{}
	for i, r := range tab.Rows {
		byName[r[0]] = i
	}
	fairRow, ok := byName["gandiva-fair"]
	if !ok {
		t.Fatal("gandiva-fair row missing")
	}
	fairErr := cell(t, tab, fairRow, 5)
	tirErr := cell(t, tab, byName["tiresias-l"], 5)
	if fairErr > 12 {
		t.Errorf("gandiva-fair share error %v%%", fairErr)
	}
	if tirErr < fairErr {
		t.Errorf("tiresias share error %v%% < gandiva-fair %v%%", tirErr, fairErr)
	}
	// Static quota must trail the sharing policies on utilization.
	staticUtil := cell(t, tab, byName["static-quota"], 4)
	fairUtil := cell(t, tab, fairRow, 4)
	if staticUtil > fairUtil {
		t.Errorf("static quota utilization %v%% > gandiva-fair %v%%", staticUtil, fairUtil)
	}
}

func TestA1PricePolicies(t *testing.T) {
	tab := runQuick(t, "A1")
	for i := range tab.Rows {
		mem, dense := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if mem < 0.99 || dense < 0.99 {
			t.Errorf("%s: gains %v/%v — some user lost", tab.Rows[i][0], mem, dense)
		}
	}
}

func TestA2QuantumSweep(t *testing.T) {
	tab := runQuick(t, "A2")
	short := cell(t, tab, 0, 1)
	long := cell(t, tab, 2, 1)
	if long < short {
		t.Errorf("longer quantum has lower useful fraction: %v vs %v", long, short)
	}
}

func TestA3Noise(t *testing.T) {
	tab := runQuick(t, "A3")
	for i := range tab.Rows {
		if dense := cell(t, tab, i, 2); dense < 0.99 {
			t.Errorf("noise row %d: dense gain %v", i, dense)
		}
	}
}

func TestA4FaultTolerance(t *testing.T) {
	tab := runQuick(t, "A4")
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	none := cell(t, tab, 0, 1)
	injected := cell(t, tab, 1, 1)
	if none != injected {
		t.Errorf("failures lost jobs: %v finished vs %v", injected, none)
	}
	if err := cell(t, tab, 1, 4); err > 10 {
		t.Errorf("share error under failures = %v%%", err)
	}
}

func TestA5Scalability(t *testing.T) {
	tab := runQuick(t, "A5")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Cost grows with scale but stays far below the quantum.
	for i := range tab.Rows {
		if ms := cell(t, tab, i, 3); ms > 1000 {
			t.Errorf("round cost %v ms at row %d — too slow for minute quanta", ms, i)
		}
	}
}

func TestTableAddRowPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched row accepted")
		}
	}()
	tab := &Table{ID: "X", Columns: []string{"a", "b"}}
	tab.AddRow("only-one")
}
