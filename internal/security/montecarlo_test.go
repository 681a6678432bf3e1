package security

import (
	"math"
	"testing"

	"mirza/internal/stats"
	"mirza/internal/track"
)

// TestMonteCarloEscapeProbability validates the analytic core of the MINT
// model empirically: against a real MINTSampler, a row receiving t of its
// window's activations escapes selection with probability (1-1/W)^t.
func TestMonteCarloEscapeProbability(t *testing.T) {
	const (
		w      = 12
		target = 60 // attacker ACTs on the victim row per trial
		trials = 30000
	)
	rng := stats.NewRNG(5)
	escapes := 0
	for trial := 0; trial < trials; trial++ {
		s := track.NewMINTSampler(w, rng.Split())
		escaped := true
		// The attacker interleaves its row with decoys, one per window
		// slot, giving the row `target` total observations.
		for i := 0; i < target; i++ {
			if s.ObserveRolling(1) {
				escaped = false
				break
			}
			for j := 0; j < w-1; j++ {
				s.ObserveRolling(1000 + j)
			}
		}
		if escaped {
			escapes++
		}
	}
	got := float64(escapes) / trials
	want := EscapeProbability(target, w)
	if math.Abs(got-want) > 0.015 {
		t.Errorf("empirical escape %.4f vs analytic %.4f", got, want)
	}
}

// TestMonteCarloSelectionUniform confirms the sampler's uniformity, the
// assumption underlying T = W*ln(K/T).
func TestMonteCarloSelectionUniform(t *testing.T) {
	const w = 8
	rng := stats.NewRNG(9)
	s := track.NewMINTSampler(w, rng)
	counts := make([]int, w)
	const windows = 80000
	for k := 0; k < windows; k++ {
		for i := 0; i < w; i++ {
			if s.ObserveRolling(i) {
				counts[i]++
			}
		}
	}
	for i, c := range counts {
		frac := float64(c) / windows
		if math.Abs(frac-1.0/w) > 0.01 {
			t.Errorf("slot %d selected %.4f, want %.4f", i, frac, 1.0/w)
		}
	}
}
