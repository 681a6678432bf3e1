package security_test

// This cross-check drives the Mithril tracker from package policies, which
// itself imports security for its analytic bounds, so it lives in the
// external test package.

import (
	"testing"

	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

// TestMithrilModelAgainstSimulation cross-checks the affine Mithril fit
// against a feinting-style attack on the actual Space-Saving tracker: the
// measured worst-case exposure of a churn pattern must stay within the
// same order as the model's tolerated threshold (scaled for the smaller
// table used here).
func TestMithrilModelAgainstSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("monte carlo")
	}
	model := security.DefaultMithrilModel()
	g := dram.Default()
	for _, w := range []int{75, 151} {
		tolerated := model.ToleratedTRHD(w)
		perRow := make(map[int]int)
		worst := 0
		tr, err := policies.NewMithril(policies.MithrilConfig{
			Geometry: g, Mapping: dram.StridedR2SA, Entries: 64, MitigateEveryREFs: 1,
		}, track.FuncSink(func(bank, row, victims int, now dram.Time) {
			perRow[row] = 0
		}))
		if err != nil {
			t.Fatal(err)
		}
		// Feinting-style churn: one more row than the table holds.
		rows := make([]int, 65)
		for i := range rows {
			rows[i] = 1000 + 2*i
		}
		acts, ref := 0, 0
		for acts < 300000 {
			for _, r := range rows {
				tr.OnActivate(0, r, 0)
				perRow[r]++
				if perRow[r] > worst {
					worst = perRow[r]
				}
				acts++
				if acts%w == 0 {
					tr.OnREF(ref%8192, 0)
					ref++
				}
			}
		}
		if worst > 4*tolerated {
			t.Errorf("W=%d: simulated worst %d far exceeds model bound %d", w, worst, tolerated)
		}
		if worst == 0 {
			t.Errorf("W=%d: no exposure recorded", w)
		}
	}
}
