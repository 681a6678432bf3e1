package policies

// Graphene (Park et al., MICRO'20) in one self-contained file: the
// Misra-Gries frequent-item counter table with a spillover counter, reset
// every tREFW. Registration at the bottom wires it into the registry so it
// picks up the attack sweep, fault injection, telemetry and audit paths
// automatically.

import (
	"fmt"
	"strconv"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// GrapheneConfig configures the Graphene baseline.
type GrapheneConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	// Threshold T: a tracked row is mitigated whenever its estimated
	// count reaches a multiple of T.
	Threshold int
	// Entries is the counter-table capacity per bank (Graphene's
	// provisioning: W/T + 1 with W the max ACTs per bank per tREFW).
	Entries int
}

type grapheneEntry struct {
	row   int
	count int
}

type grapheneBank struct {
	rows    map[int]int // row -> index into entries
	entries []grapheneEntry
	spill   int // spillover counter: ACTs to untracked rows
}

// Graphene is the per-sub-channel tracker: one counter table per bank. It
// mitigates inline (piggybacked adjacent-row refresh) and never requests
// ALERT. The Misra-Gries invariant — any row's true count is at most its
// table estimate plus the spillover counter, and an untracked row's count
// is at most the spillover counter — bounds every row's unmitigated
// activations by 2T per reset window when the table holds W/T + 1 entries.
type Graphene struct {
	cfg   GrapheneConfig
	sink  track.Sink
	banks []grapheneBank
	Stats track.Stats
}

var (
	_ track.Mitigator     = (*Graphene)(nil)
	_ track.StatsSource   = (*Graphene)(nil)
	_ track.StateInjector = (*Graphene)(nil)
)

// NewGraphene builds the Graphene baseline.
func NewGraphene(cfg GrapheneConfig, sink track.Sink) (*Graphene, error) {
	if cfg.Threshold < 1 {
		return nil, fmt.Errorf("graphene: threshold must be >= 1, got %d", cfg.Threshold)
	}
	if cfg.Entries < 1 {
		return nil, fmt.Errorf("graphene: entries must be >= 1, got %d", cfg.Entries)
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	g := &Graphene{cfg: cfg, sink: sink}
	g.banks = make([]grapheneBank, cfg.Geometry.BanksPerSubChannel)
	for i := range g.banks {
		g.banks[i].rows = make(map[int]int)
	}
	return g, nil
}

// Name implements track.Mitigator.
func (g *Graphene) Name() string {
	return fmt.Sprintf("Graphene(T=%d,N=%d)", g.cfg.Threshold, g.cfg.Entries)
}

// OnActivate implements track.Mitigator: the Misra-Gries update of the
// reference algorithm — hit increments, miss inserts while there is room,
// and a miss against a full table bumps the spillover counter and swaps it
// with the minimum entry once it catches up.
func (g *Graphene) OnActivate(bank, row int, now dram.Time) {
	g.Stats.ACTs++
	b := &g.banks[bank]
	if i, ok := b.rows[row]; ok {
		b.entries[i].count++
		g.maybeMitigate(bank, &b.entries[i], now)
		return
	}
	if len(b.entries) < g.cfg.Entries {
		b.rows[row] = len(b.entries)
		b.entries = append(b.entries, grapheneEntry{row: row, count: b.spill + 1})
		g.Stats.Insertions++
		g.maybeMitigate(bank, &b.entries[len(b.entries)-1], now)
		return
	}
	b.spill++
	min := 0
	for i := 1; i < len(b.entries); i++ {
		if b.entries[i].count < b.entries[min].count {
			min = i
		}
	}
	if b.spill >= b.entries[min].count {
		e := &b.entries[min]
		delete(b.rows, e.row)
		b.rows[row] = min
		e.row = row
		e.count, b.spill = b.spill, e.count
		g.Stats.Insertions++
		g.Stats.Evictions++
		g.maybeMitigate(bank, e, now)
	}
}

func (g *Graphene) maybeMitigate(bank int, e *grapheneEntry, now dram.Time) {
	if e.count > 0 && e.count%g.cfg.Threshold == 0 {
		g.Stats.Mitigations++
		g.sink.RowMitigated(bank, e.row, track.MitigationVictims, now)
	}
}

// WantsALERT implements track.Mitigator; Graphene never asserts ALERT.
func (g *Graphene) WantsALERT() bool { return false }

// OnREF implements track.Mitigator: the tables and spillover counters reset
// at every tREFW boundary (the reference algorithm's reset window).
func (g *Graphene) OnREF(refIndex int, now dram.Time) {
	if refIndex%g.cfg.Geometry.REFsPerWindow() != 0 {
		return
	}
	for i := range g.banks {
		b := &g.banks[i]
		if n := len(b.entries); n > 0 {
			g.Stats.Evictions += int64(n)
			b.entries = b.entries[:0]
			b.rows = make(map[int]int)
		}
		b.spill = 0
	}
}

// OnRFM implements track.Mitigator; Graphene does not use RFM.
func (g *Graphene) OnRFM(bank int, now dram.Time) { g.Stats.RFMs++ }

// ServiceALERT implements track.Mitigator; never reached (no ALERT), kept
// as a no-op for interface robustness.
func (g *Graphene) ServiceALERT(now dram.Time) {}

// TrackStats implements track.StatsSource.
func (g *Graphene) TrackStats() track.Stats { return g.Stats }

// InjectStateFault implements track.StateInjector: it flips one bit of a
// random bank's spillover counter or of a random table entry's count.
func (g *Graphene) InjectStateFault(rng *stats.RNG) string {
	bank := rng.Intn(len(g.banks))
	b := &g.banks[bank]
	bit := rng.Intn(16)
	if len(b.entries) == 0 || rng.Intn(4) == 0 {
		b.spill ^= 1 << bit
		if b.spill < 0 {
			b.spill = 0
		}
		return fmt.Sprintf("graphene[bank=%d].spill bit %d", bank, bit)
	}
	i := rng.Intn(len(b.entries))
	b.entries[i].count ^= 1 << bit
	return fmt.Sprintf("graphene[bank=%d].entry[%d].count bit %d", bank, i, bit)
}

func init() {
	track.Register(track.Descriptor{
		Name: "graphene",
		Doc:  "Graphene Misra-Gries counter table with spillover, reset per tREFW (MICRO'20)",
		ConfigSchema: []track.ParamSpec{
			{Key: "threshold", Kind: track.IntParam, Doc: "table threshold T (default TRHD/4)"},
			{Key: "entries", Kind: track.IntParam, Doc: "table entries per bank; 0 derives W/T + 1 (default 0)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"threshold": strconv.Itoa(cfg.TRHD / 4), "entries": "0"}, nil
		},
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			t, err := cfg.Params.Int("threshold")
			if err != nil {
				return nil, err
			}
			entries, err := cfg.Params.Int("entries")
			if err != nil {
				return nil, err
			}
			if t < 1 {
				return nil, fmt.Errorf("threshold must be >= 1, got %d", t)
			}
			if entries == 0 {
				entries = dram.DDR5().MaxACTsPerBankPerTREFW()/t + 1
			}
			return NewGraphene(GrapheneConfig{
				Geometry:  cfg.Geometry,
				Mapping:   cfg.Mapping,
				Threshold: t,
				Entries:   entries,
			}, sink)
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			t, err := cfg.Params.Int("threshold")
			if err != nil {
				return track.Bound{}, err
			}
			// Each aggressor of a double-sided pair is mitigated at every
			// multiple of T, so a victim sees at most 2(T-1) + spillover
			// slack < 4T unmitigated activations per reset window.
			return track.Bound{TRHD: 4 * t, Kind: fmt.Sprintf("Graphene guarantee 4T (T=%d)", t)}, nil
		},
	})
}
