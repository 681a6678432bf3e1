package track

import (
	"fmt"

	"mirza/internal/stats"
)

// MINTSampler is the Minimalist In-DRAM Tracker of Qureshi et al. (MICRO'24)
// for a single bank: a single-entry tracker that, between two consecutive
// mitigation opportunities, selects exactly one of the next W activations
// uniformly at random (Figure 2 of the MIRZA paper).
type MINTSampler struct {
	w        int
	rng      *stats.RNG
	count    int // activations observed in the current window
	target   int // 1-based index of the activation to capture
	selected int
	hasSel   bool
}

// NewMINTSampler returns a sampler with window size w drawing from rng.
func NewMINTSampler(w int, rng *stats.RNG) *MINTSampler {
	if w < 1 {
		panic(fmt.Sprintf("track: MINT window must be >= 1, got %d", w))
	}
	s := &MINTSampler{w: w, rng: rng}
	s.reset()
	return s
}

func (s *MINTSampler) reset() {
	s.count = 0
	s.target = 1 + s.rng.Intn(s.w)
	s.hasSel = false
}

// Observe feeds one activation of row into the current window and reports
// whether this activation is the one the window captures.
func (s *MINTSampler) Observe(row int) (captured bool) {
	s.count++
	if s.count == s.target {
		s.selected = row
		s.hasSel = true
		return true
	}
	return false
}

// ObserveRolling feeds one activation into a fixed-length window of exactly
// W activations and reports whether this activation is the window's
// selection. When the window completes, a fresh window (with a new random
// target) begins automatically. This is the mode MIRZA uses: each group of
// W escaping activations yields exactly one selection, so the selection
// probability is exactly 1/W (Section V.A).
func (s *MINTSampler) ObserveRolling(row int) (selected bool) {
	s.count++
	selected = s.count == s.target
	if s.count >= s.w {
		s.reset()
	}
	return selected
}

// Take consumes the current selection (if any) and starts a fresh window.
// It returns the selected row and whether one had been captured: if fewer
// than target activations arrived before the mitigation opportunity, there
// is nothing to mitigate.
func (s *MINTSampler) Take() (row int, ok bool) {
	row, ok = s.selected, s.hasSel
	s.reset()
	return row, ok
}

// InjectFault models one transient upset of the sampler's SRAM: it flips
// one bit of the 7-bit count or target field (see
// core.Config.FixedSRAMBytes for the field widths) and names the flip.
func (s *MINTSampler) InjectFault(rng *stats.RNG) (field string, bit int) {
	bit = rng.Intn(7)
	if rng.Intn(2) == 0 {
		s.count ^= 1 << bit
		return "count", bit
	}
	s.target ^= 1 << bit
	return "target", bit
}
