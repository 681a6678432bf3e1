package policies

import (
	"fmt"
	"strconv"

	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// MINTConfig configures the proactive MINT mitigator.
type MINTConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	Window   int // W: activations per mitigation window
	// MitigateEveryREFs, if > 0, takes a mitigation opportunity at every
	// k-th REF command (in-DRAM TRR-style mitigation under REF).
	MitigateEveryREFs int
	// MitigateOnRFM, if true, takes a mitigation opportunity whenever the
	// memory controller issues an RFM to a bank (the MINT+RFM baseline of
	// Figure 3; the MC issues RFM every Window activations per bank).
	MitigateOnRFM bool
	Seed          uint64
}

// MINT is the proactive randomized tracker baseline: one MINTSampler per
// bank, mitigating at REF and/or RFM opportunities. It never requests
// ALERT (it is a purely proactive design).
type MINT struct {
	cfg      MINTConfig
	sink     track.Sink
	samplers []*track.MINTSampler
	Stats    track.Stats
}

var (
	_ track.Mitigator     = (*MINT)(nil)
	_ track.StatsSource   = (*MINT)(nil)
	_ track.StateInjector = (*MINT)(nil)
)

// NewMINT builds the proactive MINT baseline. It needs a window of at least
// one activation and at least one mitigation opportunity: REF (every k >= 1
// REFs) or RFM.
func NewMINT(cfg MINTConfig, sink track.Sink) (*MINT, error) {
	if cfg.Window < 1 {
		return nil, fmt.Errorf("window must be >= 1, got %d", cfg.Window)
	}
	if cfg.MitigateEveryREFs < 0 || (cfg.MitigateEveryREFs == 0 && !cfg.MitigateOnRFM) {
		return nil, fmt.Errorf("every must be >= 1 unless mitigating on RFM, got %d", cfg.MitigateEveryREFs)
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	root := stats.NewRNG(cfg.Seed ^ 0x4d494e54) // "MINT"
	m := &MINT{cfg: cfg, sink: sink}
	m.samplers = make([]*track.MINTSampler, cfg.Geometry.BanksPerSubChannel)
	for i := range m.samplers {
		m.samplers[i] = track.NewMINTSampler(cfg.Window, root.Split())
	}
	return m, nil
}

// Name implements track.Mitigator.
func (m *MINT) Name() string { return fmt.Sprintf("MINT-%d", m.cfg.Window) }

// OnActivate implements track.Mitigator.
func (m *MINT) OnActivate(bank, row int, now dram.Time) {
	m.Stats.ACTs++
	if m.samplers[bank].Observe(row) {
		m.Stats.Insertions++
	}
}

// WantsALERT implements track.Mitigator; proactive MINT never asserts
// ALERT.
func (m *MINT) WantsALERT() bool { return false }

// OnREF implements track.Mitigator.
func (m *MINT) OnREF(refIndex int, now dram.Time) {
	k := m.cfg.MitigateEveryREFs
	if k <= 0 || refIndex%k != 0 {
		return
	}
	for bank := range m.samplers {
		m.mitigate(bank, now)
	}
}

// OnRFM implements track.Mitigator.
func (m *MINT) OnRFM(bank int, now dram.Time) {
	m.Stats.RFMs++
	if m.cfg.MitigateOnRFM {
		m.mitigate(bank, now)
	}
}

// ServiceALERT implements track.Mitigator; proactive MINT never gets here,
// but a service opportunity is still honoured for robustness.
func (m *MINT) ServiceALERT(now dram.Time) {
	for bank := range m.samplers {
		m.mitigate(bank, now)
	}
}

// InjectStateFault implements track.StateInjector: it flips one bit of a
// random bank's sampler state — the window position or the random target —
// the two SRAM fields a transient upset can reach in a MINT
// implementation.
func (m *MINT) InjectStateFault(rng *stats.RNG) string {
	bank := rng.Intn(len(m.samplers))
	field, bit := m.samplers[bank].InjectFault(rng)
	return fmt.Sprintf("mint[bank=%d].%s bit %d", bank, field, bit)
}

func (m *MINT) mitigate(bank int, now dram.Time) {
	row, ok := m.samplers[bank].Take()
	if !ok {
		return
	}
	m.Stats.Mitigations++
	m.sink.RowMitigated(bank, row, track.MitigationVictims, now)
}

// TrackStats implements track.StatsSource.
func (m *MINT) TrackStats() track.Stats { return m.Stats }

// mintConfig assembles a MINTConfig from the merged parameter bag. mint-rfm
// mitigates on RFM only; mint-ref reads its REF cadence from "every".
func mintConfig(cfg track.Config, onRFM bool) (MINTConfig, error) {
	c := MINTConfig{
		Geometry:      cfg.Geometry,
		Mapping:       cfg.Mapping,
		MitigateOnRFM: onRFM,
		Seed:          cfg.Seed + uint64(cfg.Sub)*31,
	}
	var err error
	if c.Window, err = cfg.Params.Int("window"); err != nil {
		return MINTConfig{}, err
	}
	if !onRFM {
		if c.MitigateEveryREFs, err = cfg.Params.Int("every"); err != nil {
			return MINTConfig{}, err
		}
	}
	return c, nil
}

func registerMINT(d track.Descriptor, onRFM bool) {
	d.New = func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
		c, err := mintConfig(cfg, onRFM)
		if err != nil {
			return nil, err
		}
		return NewMINT(c, sink)
	}
	if onRFM {
		d.RFMBAT = func(cfg track.Config) (int, error) {
			return cfg.Params.Int("window")
		}
	}
	d.Bound = func(cfg track.Config) (track.Bound, error) {
		w, err := cfg.Params.Int("window")
		if err != nil {
			return track.Bound{}, err
		}
		return track.Bound{
			TRHD: security.DefaultMINTModel().ToleratedTRHD(w),
			Kind: fmt.Sprintf("MINT analytic tolerated TRHD at W=%d", w),
		}, nil
	}
	track.Register(d)
}

func init() {
	registerMINT(track.Descriptor{
		Name: "mint-rfm",
		Doc:  "proactive MINT sampler, mitigating on MC RFMs issued every W ACTs per bank",
		ConfigSchema: []track.ParamSpec{
			{Key: "window", Kind: track.IntParam, Doc: "MINT window W = RFM BAT (default WindowForTRHD(TRHD))"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			w := security.DefaultMINTModel().WindowForTRHD(cfg.TRHD)
			return track.Params{"window": strconv.Itoa(w)}, nil
		},
	}, true)
	registerMINT(track.Descriptor{
		Name: "mint-ref",
		Doc:  "proactive MINT sampler, mitigating under every k-th REF command",
		ConfigSchema: []track.ParamSpec{
			{Key: "window", Kind: track.IntParam, Doc: "MINT window W (default: max ACTs between mitigations at every=1)"},
			{Key: "every", Kind: track.IntParam, Doc: "mitigate at every k-th REF (default 1)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{
				"window": strconv.Itoa(security.WindowPerREFs(dram.DDR5(), 1)),
				"every":  "1",
			}, nil
		},
	}, false)
}
