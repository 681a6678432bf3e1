package track

import (
	"testing"

	"mirza/internal/dram"
	"mirza/internal/stats"
)

func TestMINTSamplerWindowSemantics(t *testing.T) {
	rng := stats.NewRNG(1)
	s := NewMINTSampler(4, rng)
	// Fig 2: exactly one of every W observed rows is selected, uniformly.
	counts := map[int]int{}
	const windows = 50000
	for w := 0; w < windows; w++ {
		sel := -1
		for i := 0; i < 4; i++ {
			if s.ObserveRolling(i) {
				if sel >= 0 {
					t.Fatal("two selections in one window")
				}
				sel = i
			}
		}
		if sel < 0 {
			t.Fatal("no selection in a full window")
		}
		counts[sel]++
	}
	for i := 0; i < 4; i++ {
		frac := float64(counts[i]) / windows
		if frac < 0.23 || frac > 0.27 {
			t.Errorf("position %d selected %.3f of windows, want ~0.25", i, frac)
		}
	}
}

func TestMINTSamplerTake(t *testing.T) {
	s := NewMINTSampler(8, stats.NewRNG(2))
	// With fewer observations than the target, Take may return nothing;
	// after W observations it must have captured something.
	for i := 0; i < 8; i++ {
		s.Observe(100 + i)
	}
	row, ok := s.Take()
	if !ok || row < 100 || row > 107 {
		t.Fatalf("Take = %d, %v", row, ok)
	}
	// Take resets the window.
	if _, ok := s.Take(); ok {
		t.Error("second Take without observations should be empty")
	}
}

func TestMINTSamplerDeterminism(t *testing.T) {
	a := NewMINTSampler(12, stats.NewRNG(7))
	b := NewMINTSampler(12, stats.NewRNG(7))
	for i := 0; i < 10000; i++ {
		if a.ObserveRolling(i) != b.ObserveRolling(i) {
			t.Fatal("same seed must give identical selections")
		}
	}
}

func TestNopBaseline(t *testing.T) {
	n := NewNop()
	n.OnActivate(0, 1, 0)
	n.OnREF(0, 0)
	n.OnRFM(0, 0)
	n.ServiceALERT(0)
	if n.WantsALERT() {
		t.Error("Nop wants ALERT")
	}
	if n.Stats.ACTs != 1 || n.Stats.RFMs != 1 {
		t.Errorf("stats = %+v", n.Stats)
	}
}

func TestCountingSinkAndFuncSink(t *testing.T) {
	s := &CountingSink{}
	s.RowMitigated(0, 1, 4, 0)
	s.RowMitigated(0, 2, 4, 0)
	if s.Mitigations != 2 || s.VictimRows != 8 {
		t.Errorf("sink = %+v", s)
	}
	called := 0
	FuncSink(func(bank, row, victims int, now dram.Time) { called++ }).RowMitigated(0, 0, 0, 0)
	if called != 1 {
		t.Error("FuncSink not invoked")
	}
}
