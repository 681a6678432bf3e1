package policies

import (
	"fmt"
	"strconv"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// PRACConfig configures the PRAC+ABO mitigator.
type PRACConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	// AlertThreshold (ATH) is the per-row activation count at which the
	// device asserts ALERT-Back-Off. Following MOAT (ASPLOS'25), a target
	// double-sided threshold TRHD is tolerated with ATH comfortably below
	// TRHD/2 minus the ACTs an attacker can land during the ABO protocol.
	// With SampleProb set, ATH applies to the estimated count and must be
	// derated for sampling noise (MoPACDeratedATH).
	AlertThreshold int
	// SampleProb is MoPAC's p: the probability an activation updates its
	// row's counter, each sampled update adding round(1/p) so the estimate
	// stays unbiased. 0 means every ACT counts (deterministic PRAC).
	SampleProb float64
	// Seed drives the sampling draws; unused when SampleProb is 0.
	Seed uint64
}

// ATHForTRHD returns a MOAT-style ALERT threshold for a target TRHD: half
// the threshold (each aggressor of a double-sided pair accrues its own
// count) minus slack for the activations that land between ALERT assertion
// and mitigation (prologue ACTs plus the queue-drain worst case).
func ATHForTRHD(trhd int) int {
	const slack = 8 // ABO_ACTS worst case, Section VI.A/Fig 10
	ath := trhd/2 - slack
	if ath < 1 {
		ath = 1
	}
	return ath
}

// MoPACDeratedATH returns an ALERT threshold for a target TRHD under
// sampling probability p: the deterministic budget shrunk by a
// concentration margin of ~4 standard deviations of the binomial estimate.
func MoPACDeratedATH(trhd int, p float64) int {
	base := ATHForTRHD(trhd)
	if p <= 0 || p >= 1 {
		return base
	}
	// Var of the estimate after n true ACTs is n(1-p)/p; at n=base the
	// standard deviation in counted units is sqrt(base*(1-p)/p).
	slack := 4 * sqrtf(float64(base)*(1-p)/p)
	ath := base - int(slack)
	if ath < 1 {
		ath = 1
	}
	return ath
}

func sqrtf(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}

// PRAC models Per-Row Activation Counting with ALERT-Back-Off, in the style
// of MOAT: every row has an activation counter (stored in the DRAM array;
// here plain memory), incremented on each ACT. When any counter reaches the
// ALERT threshold the device asserts ALERT; servicing the ALERT mitigates
// the offending row in each bank and resets its counter. Counters reset
// when their row is refreshed.
//
// With SampleProb set it models MoPAC, the related-work design that reduces
// PRAC's timing overhead by updating per-row counters probabilistically:
// only a p-fraction of activations pay the counter update, and each sampled
// update increments by 1/p. The price is sampling noise: the ALERT
// threshold must be derated, and the DRAM-array counter area remains
// (Section X). It is included as an extension baseline for the
// design-space ablations.
//
// The performance cost of PRAC comes from its inflated timings (dram.PRAC),
// which the memory controller applies when this mitigator is selected; the
// tracker itself is mitigation-silent for benign workloads at the paper's
// thresholds.
type PRAC struct {
	cfg      PRACConfig
	sink     track.Sink
	rng      *stats.RNG // nil for deterministic PRAC
	inc      uint16     // counter increment per counted ACT
	counters [][]uint16 // [bank][row]
	pending  [][]int    // rows at/above ATH awaiting mitigation, per bank
	want     bool
	Stats    track.Stats
}

var (
	_ track.Mitigator     = (*PRAC)(nil)
	_ track.StatsSource   = (*PRAC)(nil)
	_ track.StateInjector = (*PRAC)(nil)
)

// NewPRAC builds a PRAC+ABO mitigator, or MoPAC when cfg.SampleProb > 0.
// The 16-bit row counters must hold ATH plus one increment's overshoot:
// it requires ath >= 1 and ath + inc - 1 <= 65535, where inc is round(1/p)
// for MoPAC and 1 for PRAC.
func NewPRAC(cfg PRACConfig, sink track.Sink) (*PRAC, error) {
	if !(cfg.SampleProb >= 0 && cfg.SampleProb <= 1) {
		return nil, fmt.Errorf("p must be in (0,1], got %v", cfg.SampleProb)
	}
	inc := 1
	if cfg.SampleProb > 0 {
		inc = int(1/cfg.SampleProb + 0.5)
	}
	if cfg.AlertThreshold < 1 {
		return nil, fmt.Errorf("ath must be >= 1, got %d", cfg.AlertThreshold)
	}
	if inc < 1 || cfg.AlertThreshold > 0x10000-inc {
		return nil, fmt.Errorf("ath %d with counter increment %d overflows the 16-bit row counter (need ath + inc - 1 <= 65535)",
			cfg.AlertThreshold, inc)
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	p := &PRAC{cfg: cfg, sink: sink, inc: uint16(inc)}
	if cfg.SampleProb > 0 {
		p.rng = stats.NewRNG(cfg.Seed ^ 0x4d6f504143)
	}
	banks := cfg.Geometry.BanksPerSubChannel
	p.counters = make([][]uint16, banks)
	p.pending = make([][]int, banks)
	for b := range p.counters {
		p.counters[b] = make([]uint16, cfg.Geometry.RowsPerBank)
	}
	return p, nil
}

// Name implements track.Mitigator.
func (p *PRAC) Name() string {
	if p.rng != nil {
		return fmt.Sprintf("MoPAC(p=%.3f,ATH=%d)", p.cfg.SampleProb, p.cfg.AlertThreshold)
	}
	return fmt.Sprintf("PRAC+ABO(ATH=%d)", p.cfg.AlertThreshold)
}

// OnActivate implements track.Mitigator.
func (p *PRAC) OnActivate(bank, row int, now dram.Time) {
	p.Stats.ACTs++
	if p.rng != nil && p.rng.Float64() >= p.cfg.SampleProb {
		return // not sampled: MoPAC skips this counter update
	}
	c := p.counters[bank]
	if int(c[row]) >= p.cfg.AlertThreshold {
		// Already pending; nothing more to record (saturate).
		return
	}
	c[row] += p.inc
	if int(c[row]) >= p.cfg.AlertThreshold {
		p.pending[bank] = append(p.pending[bank], row)
		p.Stats.Insertions++
		if !p.want {
			p.want = true
			p.Stats.AlertsWanted++
		}
	}
}

// WantsALERT implements track.Mitigator.
func (p *PRAC) WantsALERT() bool { return p.want }

// OnREF implements track.Mitigator: the rows refreshed by this REF have
// their counters cleared in every bank.
func (p *PRAC) OnREF(refIndex int, now dram.Time) {
	g := p.cfg.Geometry
	t := g.RefreshTargetOf(refIndex)
	for idx := t.FirstIdx; idx <= t.LastIdx; idx++ {
		row := g.RowAt(p.cfg.Mapping, t.Subarray, idx)
		for b := range p.counters {
			if int(p.counters[b][row]) >= p.cfg.AlertThreshold {
				p.removePending(b, row)
			}
			p.counters[b][row] = 0
		}
	}
	p.recomputeWant()
}

// OnRFM implements track.Mitigator: PRAC uses reactive mitigation only, but
// an unsolicited RFM opportunity still drains one pending row for the bank.
func (p *PRAC) OnRFM(bank int, now dram.Time) {
	p.Stats.RFMs++
	p.mitigateOne(bank, now)
	p.recomputeWant()
}

// ServiceALERT implements track.Mitigator: each bank mitigates one pending
// row.
func (p *PRAC) ServiceALERT(now dram.Time) {
	for b := range p.pending {
		p.mitigateOne(b, now)
	}
	p.recomputeWant()
}

func (p *PRAC) mitigateOne(bank int, now dram.Time) {
	q := p.pending[bank]
	if len(q) == 0 {
		return
	}
	row := q[0]
	p.pending[bank] = q[1:]
	p.counters[bank][row] = 0
	p.Stats.Mitigations++
	p.sink.RowMitigated(bank, row, track.MitigationVictims, now)
}

func (p *PRAC) removePending(bank, row int) {
	q := p.pending[bank]
	for i, r := range q {
		if r == row {
			p.pending[bank] = append(q[:i], q[i+1:]...)
			p.Stats.Evictions++
			return
		}
	}
}

// TrackStats implements track.StatsSource.
func (p *PRAC) TrackStats() track.Stats { return p.Stats }

func (p *PRAC) recomputeWant() {
	for _, q := range p.pending {
		if len(q) > 0 {
			if !p.want {
				p.want = true
				p.Stats.AlertsWanted++
			}
			return
		}
	}
	p.want = false
}

// InjectStateFault implements track.StateInjector: it flips one low-order
// bit of a random row's activation counter in a random bank, modeling a
// transient upset of a PRAC counter stored in the DRAM array. A downward
// flip hides real activations from the tracker; an upward flip can push a
// benign row over the ALERT threshold without the crossing ever being
// observed by OnActivate (the counter saturates silently) — both are the
// corruptions whose effect on the security margin the fault harness
// measures.
func (p *PRAC) InjectStateFault(rng *stats.RNG) string {
	bank := rng.Intn(len(p.counters))
	row := rng.Intn(len(p.counters[bank]))
	bit := rng.Intn(12) // ATH values need at most 12 bits
	p.counters[bank][row] ^= 1 << bit
	return fmt.Sprintf("prac[bank=%d][row=%d] bit %d", bank, row, bit)
}

// MaxCounter returns the largest per-row counter value currently held in
// bank (useful for tests and attack analyses).
func (p *PRAC) MaxCounter(bank int) int {
	max := 0
	for _, c := range p.counters[bank] {
		if int(c) > max {
			max = int(c)
		}
	}
	return max
}

// pracConfig assembles a PRACConfig from the merged parameter bag. For
// MoPAC, ath=0 derives the derated threshold; p=0 is rejected because in
// PRACConfig it selects deterministic PRAC.
func pracConfig(cfg track.Config, sampled bool) (PRACConfig, error) {
	c := PRACConfig{
		Geometry: cfg.Geometry,
		Mapping:  cfg.Mapping,
		Seed:     cfg.Seed + uint64(cfg.Sub)*31,
	}
	var err error
	if c.AlertThreshold, err = cfg.Params.Int("ath"); err != nil {
		return PRACConfig{}, err
	}
	if !sampled {
		return c, nil
	}
	if c.SampleProb, err = cfg.Params.Float("p"); err != nil {
		return PRACConfig{}, err
	}
	if c.SampleProb == 0 {
		return PRACConfig{}, fmt.Errorf("p must be in (0,1], got 0")
	}
	if c.AlertThreshold == 0 {
		c.AlertThreshold = MoPACDeratedATH(cfg.TRHD, c.SampleProb)
	}
	return c, nil
}

func registerPRAC(d track.Descriptor, sampled bool) {
	d.New = func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
		c, err := pracConfig(cfg, sampled)
		if err != nil {
			return nil, err
		}
		return NewPRAC(c, sink)
	}
	// PRAC-enabled parts pay the longer tRC of the counter update.
	d.Timing = func(cfg track.Config) dram.Timing { return dram.PRAC() }
	track.Register(d)
}

func init() {
	registerPRAC(track.Descriptor{
		Name: "prac",
		Doc:  "PRAC per-row activation counters + ALERT back-off at ATH (MOAT-style)",
		ConfigSchema: []track.ParamSpec{
			{Key: "ath", Kind: track.IntParam, Doc: "ALERT threshold (default ATHForTRHD(TRHD) = TRHD/2 - 8)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"ath": strconv.Itoa(ATHForTRHD(cfg.TRHD))}, nil
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			return track.Bound{TRHD: cfg.TRHD, Kind: "provisioned TRHD (deterministic ATH+ABO)"}, nil
		},
	}, false)
	registerPRAC(track.Descriptor{
		Name: "mopac",
		Doc:  "MoPAC probabilistic PRAC counting with 4-sigma derated ATH",
		ConfigSchema: []track.ParamSpec{
			{Key: "p", Kind: track.FloatParam, Doc: "per-ACT counter-update sample probability in (0,1] (default 0.1)"},
			{Key: "ath", Kind: track.IntParam, Doc: "ALERT threshold; 0 derives MoPACDeratedATH(TRHD, p) (default 0)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"p": "0.1", "ath": "0"}, nil
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			return track.Bound{TRHD: cfg.TRHD, Kind: "provisioned TRHD (probabilistic, 4-sigma derated ATH)"}, nil
		},
	}, true)
}
