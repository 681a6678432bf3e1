package policies

import (
	"container/heap"
	"fmt"

	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// spaceSaving is a Space-Saving frequent-items summary: the counter-based
// tracking core used by Mithril-style in-DRAM trackers. It maintains k
// (row, count) entries; a miss with a full table replaces the minimum-count
// entry and inherits min+1, which upper-bounds every row's true activation
// count and is what gives counter-based trackers their security guarantee.
type spaceSaving struct {
	entries []ssEntry
	index   map[int]int // row -> position in entries (heap slot)
	k       int
}

type ssEntry struct {
	row   int
	count int64
}

// heap.Interface over entries ordered by count (min-heap).
func (s *spaceSaving) Len() int           { return len(s.entries) }
func (s *spaceSaving) Less(i, j int) bool { return s.entries[i].count < s.entries[j].count }
func (s *spaceSaving) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.index[s.entries[i].row] = i
	s.index[s.entries[j].row] = j
}
func (s *spaceSaving) Push(x any) {
	e := x.(ssEntry)
	s.index[e.row] = len(s.entries)
	s.entries = append(s.entries, e)
}
func (s *spaceSaving) Pop() any {
	n := len(s.entries)
	e := s.entries[n-1]
	s.entries = s.entries[:n-1]
	delete(s.index, e.row)
	return e
}

// newSpaceSaving returns a k-entry summary over a bank of rows rows. The
// table never holds more entries than the bank has rows, so the index is
// pre-sized to the smaller of the two.
func newSpaceSaving(k, rows int) *spaceSaving {
	return &spaceSaving{k: k, index: make(map[int]int, min(k, rows))}
}

// observe records one activation of row, reporting whether a new entry was
// inserted and whether an existing one was evicted for it.
func (s *spaceSaving) observe(row int) (inserted, evicted bool) {
	if i, ok := s.index[row]; ok {
		s.entries[i].count++
		heap.Fix(s, i)
		return false, false
	}
	if len(s.entries) < s.k {
		heap.Push(s, ssEntry{row: row, count: 1})
		return true, false
	}
	// Replace the minimum entry; the newcomer inherits min+1.
	min := s.entries[0]
	delete(s.index, min.row)
	s.entries[0] = ssEntry{row: row, count: min.count + 1}
	s.index[row] = 0
	heap.Fix(s, 0)
	return true, true
}

// takeMax removes and returns the entry with the highest count.
func (s *spaceSaving) takeMax() (ssEntry, bool) {
	if len(s.entries) == 0 {
		return ssEntry{}, false
	}
	best := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].count > s.entries[best].count {
			best = i
		}
	}
	e := s.entries[best]
	// Remove by swapping with the last element and re-fixing.
	last := len(s.entries) - 1
	s.Swap(best, last)
	s.entries = s.entries[:last]
	delete(s.index, e.row)
	if best < len(s.entries) {
		heap.Fix(s, best)
	}
	return e, true
}

// drop removes row from the summary if present (e.g. its count was cleared
// by a demand refresh), reporting whether an entry was removed.
func (s *spaceSaving) drop(row int) bool {
	i, ok := s.index[row]
	if !ok {
		return false
	}
	last := len(s.entries) - 1
	s.Swap(i, last)
	s.entries = s.entries[:last]
	delete(s.index, row)
	if i < len(s.entries) {
		heap.Fix(s, i)
	}
	return true
}

// MithrilConfig configures the Mithril-style counter tracker.
type MithrilConfig struct {
	Geometry dram.Geometry
	Mapping  dram.R2SAMapping
	Entries  int // tracking entries per bank (2K in the paper's comparison)
	// MitigateEveryREFs takes a mitigation opportunity every k REFs.
	MitigateEveryREFs int
}

// Mithril is a counter-based proactive in-DRAM tracker in the style of
// Mithril (HPCA'22): a Space-Saving summary with Entries counters per bank,
// mitigating the maximum-count entry at each proactive opportunity. It
// provides a deterministic security bound at the cost of large SRAM
// (Table II and Section VIII.A of the MIRZA paper).
type Mithril struct {
	cfg    MithrilConfig
	sink   track.Sink
	tables []*spaceSaving
	Stats  track.Stats
}

var (
	_ track.Mitigator     = (*Mithril)(nil)
	_ track.StatsSource   = (*Mithril)(nil)
	_ track.StateInjector = (*Mithril)(nil)
)

// NewMithril builds the Mithril-style baseline. Entries and
// MitigateEveryREFs must be >= 1.
func NewMithril(cfg MithrilConfig, sink track.Sink) (*Mithril, error) {
	if cfg.Entries < 1 || cfg.MitigateEveryREFs < 1 {
		return nil, fmt.Errorf("entries and every must be >= 1, got %d/%d", cfg.Entries, cfg.MitigateEveryREFs)
	}
	if sink == nil {
		sink = track.NopSink{}
	}
	m := &Mithril{cfg: cfg, sink: sink}
	m.tables = make([]*spaceSaving, cfg.Geometry.BanksPerSubChannel)
	for i := range m.tables {
		m.tables[i] = newSpaceSaving(cfg.Entries, cfg.Geometry.RowsPerBank)
	}
	return m, nil
}

// Name implements track.Mitigator.
func (m *Mithril) Name() string { return fmt.Sprintf("Mithril-%d", m.cfg.Entries) }

// OnActivate implements track.Mitigator.
func (m *Mithril) OnActivate(bank, row int, now dram.Time) {
	m.Stats.ACTs++
	inserted, evicted := m.tables[bank].observe(row)
	if inserted {
		m.Stats.Insertions++
	}
	if evicted {
		m.Stats.Evictions++
	}
}

// WantsALERT implements track.Mitigator; Mithril is proactive.
func (m *Mithril) WantsALERT() bool { return false }

// OnREF implements track.Mitigator.
func (m *Mithril) OnREF(refIndex int, now dram.Time) {
	g := m.cfg.Geometry
	t := g.RefreshTargetOf(refIndex)
	for idx := t.FirstIdx; idx <= t.LastIdx; idx++ {
		row := g.RowAt(m.cfg.Mapping, t.Subarray, idx)
		for _, tab := range m.tables {
			if tab.drop(row) {
				m.Stats.Evictions++
			}
		}
	}
	if refIndex%m.cfg.MitigateEveryREFs == 0 {
		for bank := range m.tables {
			m.mitigate(bank, now)
		}
	}
}

// OnRFM implements track.Mitigator; Mithril mitigates under REF only, so an
// RFM is counted and otherwise ignored.
func (m *Mithril) OnRFM(bank int, now dram.Time) { m.Stats.RFMs++ }

// ServiceALERT implements track.Mitigator.
func (m *Mithril) ServiceALERT(now dram.Time) {
	for bank := range m.tables {
		m.mitigate(bank, now)
	}
}

// InjectStateFault implements track.StateInjector: it flips one bit of a
// random Space-Saving entry's count in a random bank and restores the heap
// invariant (the hardware analogue is a corrupted counter that the
// comparator network keeps consuming as if it were genuine).
func (m *Mithril) InjectStateFault(rng *stats.RNG) string {
	bank := rng.Intn(len(m.tables))
	tab := m.tables[bank]
	if len(tab.entries) == 0 {
		return fmt.Sprintf("mithril[bank=%d] empty (no-op)", bank)
	}
	i := rng.Intn(len(tab.entries))
	bit := rng.Intn(16)
	row := tab.entries[i].row
	tab.entries[i].count ^= 1 << bit
	heap.Fix(tab, i)
	return fmt.Sprintf("mithril[bank=%d][row=%d] bit %d", bank, row, bit)
}

func (m *Mithril) mitigate(bank int, now dram.Time) {
	e, ok := m.tables[bank].takeMax()
	if !ok {
		return
	}
	m.Stats.Mitigations++
	m.sink.RowMitigated(bank, e.row, track.MitigationVictims, now)
}

// TrackStats implements track.StatsSource.
func (m *Mithril) TrackStats() track.Stats { return m.Stats }

func init() {
	track.Register(track.Descriptor{
		Name: "mithril",
		Doc:  "Mithril-style Space-Saving counter tracker, mitigating under REF",
		ConfigSchema: []track.ParamSpec{
			{Key: "entries", Kind: track.IntParam, Doc: "Space-Saving entries per bank (default 2048)"},
			{Key: "every", Kind: track.IntParam, Doc: "mitigate at every k-th REF (default 1)"},
		},
		DefaultConfig: func(cfg track.Config) (track.Params, error) {
			return track.Params{"entries": "2048", "every": "1"}, nil
		},
		New: func(cfg track.Config, sink track.Sink) (track.Mitigator, error) {
			c := MithrilConfig{Geometry: cfg.Geometry, Mapping: cfg.Mapping}
			var err error
			if c.Entries, err = cfg.Params.Int("entries"); err != nil {
				return nil, err
			}
			if c.MitigateEveryREFs, err = cfg.Params.Int("every"); err != nil {
				return nil, err
			}
			return NewMithril(c, sink)
		},
		Bound: func(cfg track.Config) (track.Bound, error) {
			every, err := cfg.Params.Int("every")
			if err != nil {
				return track.Bound{}, err
			}
			w := security.WindowPerREFs(dram.DDR5(), every)
			return track.Bound{
				TRHD: security.DefaultMithrilModel().ToleratedTRHD(w),
				Kind: fmt.Sprintf("Mithril analytic tolerated TRHD at W=%d", w),
			}, nil
		},
	})
}
