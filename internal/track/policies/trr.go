package policies

import (
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/track"
)

// TRRConfig configures the DDR4-style Targeted Row Refresh baseline.
type TRRConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	Entries  int // tracker entries per bank (reverse-engineered 4-28)
	// MitigateEveryREFs takes a mitigation opportunity every k REFs
	// (the paper's comparison uses one mitigation per 4 REF).
	MitigateEveryREFs int
	// SampleEvery models TRR's activation sampling: only every k-th
	// activation to a bank updates the tracker (the registry default is
	// 16). Deterministic sampling is what TRRespass/Blacksmith-style
	// patterns exploit: an attacker who knows the period parks decoy
	// activations on the sampled slots and hammers the aggressor in the
	// shadow of the sampler.
	SampleEvery int
}

// TRR models the in-DRAM Targeted Row Refresh trackers shipped in DDR4
// devices (Section X, Table XII): a small table of (row, counter) entries
// fed by a deterministic activation sampler. A sampled hit increments the
// counter; a sampled miss inserts into a free slot or evicts the
// minimum-count entry without inheriting its count. The sampling is why
// TRR is not secure: an attacker who knows the sampler's period aligns
// decoy activations with the sampled slots so the aggressor is never even
// observed (the TRRespass/Blacksmith pattern family). Its registration is
// flagged Insecure, and the attack tests demonstrate the evasion.
type TRR struct {
	cfg      TRRConfig
	sink     track.Sink
	tables   [][]trrEntry
	actCount []int64
	Stats    track.Stats
}

type trrEntry struct {
	row   int
	count int64
}

var (
	_ track.Mitigator   = (*TRR)(nil)
	_ track.StatsSource = (*TRR)(nil)
)

// NewTRR builds the TRR baseline. Entries, MitigateEveryREFs and
// SampleEvery must all be >= 1.
func NewTRR(cfg TRRConfig, sink track.Sink) (*TRR, error) {
	if cfg.Entries < 1 || cfg.MitigateEveryREFs < 1 || cfg.SampleEvery < 1 {
		return nil, fmt.Errorf("entries, every and sample must be >= 1, got %d/%d/%d",
			cfg.Entries, cfg.MitigateEveryREFs, cfg.SampleEvery)
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	t := &TRR{cfg: cfg, sink: sink}
	t.tables = make([][]trrEntry, cfg.Geometry.BanksPerSubChannel)
	t.actCount = make([]int64, cfg.Geometry.BanksPerSubChannel)
	return t, nil
}

// Name implements track.Mitigator.
func (t *TRR) Name() string { return fmt.Sprintf("TRR-%d", t.cfg.Entries) }

// OnActivate implements track.Mitigator.
func (t *TRR) OnActivate(bank, row int, now dram.Time) {
	t.Stats.ACTs++
	t.actCount[bank]++
	if t.actCount[bank]%int64(t.cfg.SampleEvery) != 0 {
		return // not sampled: the tracker never sees this activation
	}
	table := t.tables[bank]
	for i := range table {
		if table[i].row == row {
			table[i].count++
			return
		}
	}
	if len(table) < t.cfg.Entries {
		t.tables[bank] = append(table, trrEntry{row: row, count: 1})
		t.Stats.Insertions++
		return
	}
	// Evict the minimum-count entry; the newcomer starts at 1 (the
	// insecure part: no count inheritance).
	min := 0
	for i := 1; i < len(table); i++ {
		if table[i].count < table[min].count {
			min = i
		}
	}
	table[min] = trrEntry{row: row, count: 1}
	t.Stats.Evictions++
	t.Stats.Insertions++
}

// WantsALERT implements track.Mitigator; TRR is proactive.
func (t *TRR) WantsALERT() bool { return false }

// OnREF implements track.Mitigator.
func (t *TRR) OnREF(refIndex int, now dram.Time) {
	g := t.cfg.Geometry
	target := g.RefreshTargetOf(refIndex)
	for idx := target.FirstIdx; idx <= target.LastIdx; idx++ {
		row := g.RowAt(t.cfg.Mapping, target.Subarray, idx)
		for b := range t.tables {
			t.dropRow(b, row)
		}
	}
	if refIndex%t.cfg.MitigateEveryREFs == 0 {
		for bank := range t.tables {
			t.mitigate(bank, now)
		}
	}
}

// OnRFM implements track.Mitigator.
func (t *TRR) OnRFM(bank int, now dram.Time) {
	t.Stats.RFMs++
	t.mitigate(bank, now)
}

// ServiceALERT implements track.Mitigator.
func (t *TRR) ServiceALERT(now dram.Time) {
	for bank := range t.tables {
		t.mitigate(bank, now)
	}
}

func (t *TRR) dropRow(bank, row int) {
	table := t.tables[bank]
	for i := range table {
		if table[i].row == row {
			t.tables[bank] = append(table[:i], table[i+1:]...)
			t.Stats.Evictions++
			return
		}
	}
}

// TrackStats implements track.StatsSource.
func (t *TRR) TrackStats() track.Stats { return t.Stats }

func (t *TRR) mitigate(bank int, now dram.Time) {
	table := t.tables[bank]
	if len(table) == 0 {
		return
	}
	best := 0
	for i := 1; i < len(table); i++ {
		if table[i].count > table[best].count {
			best = i
		}
	}
	row := table[best].row
	t.tables[bank] = append(table[:best], table[best+1:]...)
	t.Stats.Mitigations++
	t.sink.RowMitigated(bank, row, track.MitigationVictims, now)
}

func init() {
	track.Register(track.Descriptor{
		Name:     "trr",
		Doc:      "sampled TRR-style counter table, mitigating under REF (no security guarantee)",
		Insecure: true,
		ConfigSchema: []track.ParamSpec{
			{Key: "entries", Kind: track.IntParam, Doc: "tracker table entries per bank (default 28)"},
			{Key: "every", Kind: track.IntParam, Doc: "mitigate at every k-th REF (default 4)"},
			{Key: "sample", Kind: track.IntParam, Doc: "observe every k-th ACT only (default 16)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"entries": "28", "every": "4", "sample": "16"}, nil
		},
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			c := TRRConfig{Geometry: cfg.Geometry, Mapping: cfg.Mapping}
			var err error
			if c.Entries, err = cfg.Params.Int("entries"); err != nil {
				return nil, err
			}
			if c.MitigateEveryREFs, err = cfg.Params.Int("every"); err != nil {
				return nil, err
			}
			if c.SampleEvery, err = cfg.Params.Int("sample"); err != nil {
				return nil, err
			}
			return NewTRR(c, sink)
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			return track.Bound{TRHD: cfg.TRHD, Kind: "nominal TRHD (TRR has no guarantee)"}, nil
		},
	})
}
