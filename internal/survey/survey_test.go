package survey

import (
	"math"
	"strings"
	"testing"
)

// TestWeightedAveragesMatchPaper recomputes the Wt.Avg column of Table 3
// from the per-distribution percentages and the survey population sizes.
// The published inputs are rounded to 2 decimals (and the paper's exact
// population snapshot may differ slightly), so rows are checked to ±0.03.
func TestWeightedAveragesMatchPaper(t *testing.T) {
	for i := range Table3 {
		p := &Table3[i]
		got := p.WeightedAvg()
		if math.Abs(got-p.PaperWtAvg) > 0.03 {
			t.Errorf("%s: recomputed %.3f, paper %.2f", p.Name, got, p.PaperWtAvg)
		}
	}
}

func TestTable3Properties(t *testing.T) {
	if len(Table3) != 20 {
		t.Fatalf("Table 3 has %d rows, want 20", len(Table3))
	}
	investigated := 0
	for i := range Table3 {
		p := &Table3[i]
		if p.UbuntuPct < 0 || p.UbuntuPct > 100 || p.DebianPct < 0 || p.DebianPct > 100 {
			t.Errorf("%s: percentage out of range", p.Name)
		}
		// Weighted average always lies between the two marginals.
		lo := math.Min(p.UbuntuPct, p.DebianPct)
		hi := math.Max(p.UbuntuPct, p.DebianPct)
		if w := p.WeightedAvg(); w < lo-1e-9 || w > hi+1e-9 {
			t.Errorf("%s: weighted avg %.2f outside [%.2f, %.2f]", p.Name, w, lo, hi)
		}
		if p.Investigated {
			investigated++
		}
	}
	if investigated != 15 {
		t.Errorf("investigated packages = %d, want 15 (through ecryptfs-utils)", investigated)
	}
}

func TestSortedByWeightMatchesPaperOrder(t *testing.T) {
	for i := 1; i < len(Table3); i++ {
		if prev, row := &Table3[i-1], &Table3[i]; row.WeightedAvg() > prev.WeightedAvg() {
			t.Fatalf("row %d: %q (%.2f%%) outweighs %q (%.2f%%) above it in the paper's order",
				i, row.Name, row.WeightedAvg(), prev.Name, prev.WeightedAvg())
		}
	}
}

func TestUbuntuDominatesWeight(t *testing.T) {
	// Ubuntu contributes ~94.9% of the weight; rows where the two
	// distributions disagree must land near the Ubuntu value.
	for i := range Table3 {
		p := &Table3[i]
		if math.Abs(p.UbuntuPct-p.DebianPct) > 20 {
			if math.Abs(p.WeightedAvg()-p.UbuntuPct) > math.Abs(p.WeightedAvg()-p.DebianPct) {
				t.Errorf("%s: weighted avg closer to Debian despite Ubuntu dominance", p.Name)
			}
		}
	}
}

func TestTable8Totals(t *testing.T) {
	if got := TotalTable8Binaries(); got != RemainingBinaries {
		t.Fatalf("table 8 binaries = %d, want %d", got, RemainingBinaries)
	}
	if got := AddressedBinaries(); got != 77 {
		t.Fatalf("addressed binaries = %d, want 77 (§5.4)", got)
	}
}

func TestFormatTables(t *testing.T) {
	t3 := FormatTable3()
	if !strings.Contains(t3, "mount") || !strings.Contains(t3, "99.99") {
		t.Fatalf("table 3 render: %q", t3)
	}
	t8 := FormatTable8()
	if !strings.Contains(t8, "77/91") {
		t.Fatalf("table 8 render: %q", t8)
	}
}

// TestCoveragePlausibility sanity-checks the published 89.5% coverage
// claim against what the marginals permit: coverage cannot exceed the
// probability that a system lacks the most popular uninvestigated package,
// and should be at least the share left after independently excluding all
// uninvestigated packages.
func TestCoveragePlausibility(t *testing.T) {
	upper := 100.0
	independentLower := 100.0
	for i := range Table3 {
		p := &Table3[i]
		if p.Investigated {
			continue
		}
		if u := 100 - p.WeightedAvg(); u < upper {
			upper = u
		}
		independentLower *= (100 - p.WeightedAvg()) / 100
	}
	if CoveragePct > upper {
		t.Fatalf("coverage %.1f%% exceeds upper bound %.1f%%", CoveragePct, upper)
	}
	// The independence assumption is pessimistic (installations of the
	// long-tail packages correlate), so the published figure should sit
	// between that bound and the upper bound.
	if CoveragePct < independentLower {
		t.Fatalf("coverage %.1f%% below independence lower bound %.1f%%", CoveragePct, independentLower)
	}
}
