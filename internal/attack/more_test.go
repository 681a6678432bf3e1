package attack

import (
	"testing"
	"testing/quick"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

func TestDoubleSidedManyPattern(t *testing.T) {
	g := dram.Default()
	p := DoubleSidedMany(g, dram.StridedR2SA, 2, 3)
	rows := p.Rows()
	if len(rows) != 6 {
		t.Fatalf("3 pairs should give 6 aggressors, got %d", len(rows))
	}
	// Pairs sandwich victims: indices 1,3 / 5,7 / 9,11.
	want := []int{1, 3, 5, 7, 9, 11}
	for i, r := range rows {
		if g.PhysicalIndex(dram.StridedR2SA, r) != want[i] {
			t.Errorf("aggressor %d at index %d, want %d", i,
				g.PhysicalIndex(dram.StridedR2SA, r), want[i])
		}
	}
}

func TestPatternPanics(t *testing.T) {
	g := dram.Default()
	cases := []func(){
		func() { NewRotation("empty") },
		func() { DoubleSided(g, dram.StridedR2SA, 0, 0) },
		func() { Circular(g, dram.StridedR2SA, 0, 600) },
		func() { EdgeDoubleSided(g, dram.StridedR2SA, 0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// TestPropertyDisturbanceConsistency: for any interleaving of activations
// over a small row set, the single-sided maximum never falls below the
// double-sided maximum, and mitigation clears the right victims.
func TestPropertyDisturbanceConsistency(t *testing.T) {
	g := dram.Default()
	f := func(ops []uint8) bool {
		d := NewDisturbance(g, dram.StridedR2SA)
		for _, op := range ops {
			idx := 10 + int(op%16)
			d.OnActivate(g.RowAt(dram.StridedR2SA, 1, idx))
		}
		return d.MaxSingleSided() >= d.MaxDoubleSided()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBankSimResultString(t *testing.T) {
	r := BankSimResult{ACTs: 10, Alerts: 2, MaxSingleSided: 5}
	if s := r.String(); s == "" {
		t.Error("empty result string")
	}
}

// TestMIRZAMultiWindowStability: exposure bounds hold across many refresh
// windows, not just the first (no state leaks between windows).
func TestMIRZAMultiWindowStability(t *testing.T) {
	if testing.Short() {
		t.Skip("long attack run")
	}
	cfg, _ := core.ForTRHD(1000)
	cfg.Seed = 77
	sim := NewBankSim(BankSimConfig{
		Geometry: cfg.Geometry, Timing: dram.DDR5(), Mapping: cfg.Mapping, Bank: 0,
		NewMitigator: func(sink track.Sink) track.Mitigator {
			return core.MustNew(cfg, sink)
		},
	})
	pattern := DoubleSided(cfg.Geometry, cfg.Mapping, 9, 512)
	prev := 0
	for window := 1; window <= 4; window++ {
		res := sim.RunWindows(pattern, 1)
		if res.MaxDoubleSided >= 1000 {
			t.Fatalf("window %d: exposure %d reached the threshold", window, res.MaxDoubleSided)
		}
		if window > 1 && res.MaxDoubleSided > prev*3 && prev > 0 {
			t.Errorf("window %d: exposure jumped %d -> %d (state leak?)", window, prev, res.MaxDoubleSided)
		}
		prev = res.MaxDoubleSided
	}
}

// TestNaiveMIRZAStillSecure: filtering is a performance optimization, not a
// security requirement — FTH=0 (Naive MIRZA) must also hold the bound.
func TestNaiveMIRZAStillSecure(t *testing.T) {
	cfg, _ := core.ForTRHD(1000)
	cfg.FTH = 0
	cfg.Seed = 5
	sim := NewBankSim(BankSimConfig{
		Geometry: cfg.Geometry, Timing: dram.DDR5(), Mapping: cfg.Mapping, Bank: 0,
		NewMitigator: func(sink track.Sink) track.Mitigator {
			return core.MustNew(cfg, sink)
		},
	})
	res := sim.RunWindows(DoubleSided(cfg.Geometry, cfg.Mapping, 4, 500), 1)
	if res.MaxDoubleSided >= 1000 {
		t.Errorf("naive MIRZA exposed %d", res.MaxDoubleSided)
	}
	if res.Alerts == 0 {
		t.Error("naive MIRZA should alert constantly")
	}
}

// TestMoPACUnderAttack: the probabilistic-counting extension must still
// bound a double-sided attack at its derated threshold.
func TestMoPACUnderAttack(t *testing.T) {
	g := dram.Default()
	ath := policies.MoPACDeratedATH(1000, 0.25)
	sim := NewBankSim(BankSimConfig{
		Geometry: g, Timing: dram.DDR5(), Mapping: dram.StridedR2SA, Bank: 0,
		NewMitigator: func(sink track.Sink) track.Mitigator {
			m, err := policies.NewPRAC(policies.PRACConfig{
				Geometry: g, Mapping: dram.StridedR2SA,
				SampleProb: 0.25, AlertThreshold: ath, Seed: 11,
			}, sink)
			if err != nil {
				panic(err)
			}
			return m
		},
	})
	res := sim.RunWindows(DoubleSided(g, dram.StridedR2SA, 2, 300), 1)
	if res.MaxDoubleSided >= 1000 {
		t.Errorf("MoPAC exposed %d unmitigated ACTs (TRHD=1000)", res.MaxDoubleSided)
	}
	if res.Alerts == 0 {
		t.Error("MoPAC should have alerted under hammering")
	}
}
