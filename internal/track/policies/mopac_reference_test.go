package policies

import (
	"fmt"
	"testing"

	"mirza/internal/attack"
	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

// refMoPAC is the stand-alone MoPAC tracker as it existed before MoPAC
// became PRAC with a sample probability, kept verbatim (int32 counters,
// its own copies of the refresh and service paths) as the reference the
// merged PRAC must reproduce call for call.
type refMoPAC struct {
	cfg      PRACConfig
	sink     track.Sink
	rng      *stats.RNG
	inc      int
	counters [][]int32
	pending  [][]int
	want     bool
	Stats    track.Stats
}

func newRefMoPAC(cfg PRACConfig, sink track.Sink) *refMoPAC {
	m := &refMoPAC{
		cfg:  cfg,
		sink: sink,
		rng:  stats.NewRNG(cfg.Seed ^ 0x4d6f504143),
		inc:  int(1/cfg.SampleProb + 0.5),
	}
	banks := cfg.Geometry.BanksPerSubChannel
	m.counters = make([][]int32, banks)
	m.pending = make([][]int, banks)
	for b := range m.counters {
		m.counters[b] = make([]int32, cfg.Geometry.RowsPerBank)
	}
	return m
}

func (m *refMoPAC) Name() string {
	return fmt.Sprintf("MoPAC(p=%.3f,ATH=%d)", m.cfg.SampleProb, m.cfg.AlertThreshold)
}

func (m *refMoPAC) OnActivate(bank, row int, now dram.Time) {
	m.Stats.ACTs++
	if m.rng.Float64() >= m.cfg.SampleProb {
		return
	}
	c := m.counters[bank]
	if int(c[row]) >= m.cfg.AlertThreshold {
		return
	}
	c[row] += int32(m.inc)
	if int(c[row]) >= m.cfg.AlertThreshold {
		m.pending[bank] = append(m.pending[bank], row)
		m.Stats.Insertions++
		if !m.want {
			m.want = true
			m.Stats.AlertsWanted++
		}
	}
}

func (m *refMoPAC) WantsALERT() bool { return m.want }

func (m *refMoPAC) OnREF(refIndex int, now dram.Time) {
	g := m.cfg.Geometry
	t := g.RefreshTargetOf(refIndex)
	for idx := t.FirstIdx; idx <= t.LastIdx; idx++ {
		row := g.RowAt(m.cfg.Mapping, t.Subarray, idx)
		for b := range m.counters {
			if int(m.counters[b][row]) >= m.cfg.AlertThreshold {
				m.removePending(b, row)
			}
			m.counters[b][row] = 0
		}
	}
	m.recomputeWant()
}

func (m *refMoPAC) OnRFM(bank int, now dram.Time) {
	m.Stats.RFMs++
	m.mitigateOne(bank, now)
	m.recomputeWant()
}

func (m *refMoPAC) ServiceALERT(now dram.Time) {
	for b := range m.pending {
		m.mitigateOne(b, now)
	}
	m.recomputeWant()
}

func (m *refMoPAC) mitigateOne(bank int, now dram.Time) {
	q := m.pending[bank]
	if len(q) == 0 {
		return
	}
	row := q[0]
	m.pending[bank] = q[1:]
	m.counters[bank][row] = 0
	m.Stats.Mitigations++
	m.sink.RowMitigated(bank, row, track.MitigationVictims, now)
}

func (m *refMoPAC) removePending(bank, row int) {
	q := m.pending[bank]
	for i, r := range q {
		if r == row {
			m.pending[bank] = append(q[:i], q[i+1:]...)
			m.Stats.Evictions++
			return
		}
	}
}

func (m *refMoPAC) TrackStats() track.Stats { return m.Stats }

func (m *refMoPAC) recomputeWant() {
	for _, q := range m.pending {
		if len(q) > 0 {
			if !m.want {
				m.want = true
				m.Stats.AlertsWanted++
			}
			return
		}
	}
	m.want = false
}

type mitEvent struct {
	bank, row, victims int
	now                dram.Time
}

// mopacPair drives the reference and the merged tracker in lockstep and
// fails at the first call after which they disagree.
type mopacPair struct {
	t              *testing.T
	ref            *refMoPAC
	got            *PRAC
	refEvs, gotEvs []mitEvent
	calls          int
}

func newMoPACPair(t *testing.T, cfg PRACConfig) *mopacPair {
	pr := &mopacPair{t: t}
	pr.ref = newRefMoPAC(cfg, track.FuncSink(func(bank, row, victims int, now dram.Time) {
		pr.refEvs = append(pr.refEvs, mitEvent{bank, row, victims, now})
	}))
	got, err := NewPRAC(cfg, track.FuncSink(func(bank, row, victims int, now dram.Time) {
		pr.gotEvs = append(pr.gotEvs, mitEvent{bank, row, victims, now})
	}))
	if err != nil {
		t.Fatal(err)
	}
	pr.got = got
	return pr
}

func (pr *mopacPair) check(what string) {
	pr.t.Helper()
	pr.calls++
	if r, g := pr.ref.WantsALERT(), pr.got.WantsALERT(); r != g {
		pr.t.Fatalf("call %d (%s): WantsALERT ref=%v merged=%v", pr.calls, what, r, g)
	}
	if pr.ref.Stats != pr.got.Stats {
		pr.t.Fatalf("call %d (%s): stats ref=%+v merged=%+v", pr.calls, what, pr.ref.Stats, pr.got.Stats)
	}
	if len(pr.refEvs) != len(pr.gotEvs) {
		pr.t.Fatalf("call %d (%s): %d reference mitigations vs %d merged", pr.calls, what, len(pr.refEvs), len(pr.gotEvs))
	}
	if n := len(pr.refEvs); n > 0 && pr.refEvs[n-1] != pr.gotEvs[n-1] {
		pr.t.Fatalf("call %d (%s): mitigation ref=%+v merged=%+v", pr.calls, what, pr.refEvs[n-1], pr.gotEvs[n-1])
	}
}

func (pr *mopacPair) act(bank, row int, now dram.Time) {
	pr.ref.OnActivate(bank, row, now)
	pr.got.OnActivate(bank, row, now)
	pr.check("ACT")
}

func (pr *mopacPair) refresh(refIndex int, now dram.Time) {
	pr.ref.OnREF(refIndex, now)
	pr.got.OnREF(refIndex, now)
	pr.check("REF")
}

func (pr *mopacPair) rfm(bank int, now dram.Time) {
	pr.ref.OnRFM(bank, now)
	pr.got.OnRFM(bank, now)
	pr.check("RFM")
}

func (pr *mopacPair) alert(now dram.Time) {
	pr.ref.ServiceALERT(now)
	pr.got.ServiceALERT(now)
	pr.check("ALERT")
}

// TestMoPACMatchesReference is the proof that folding MoPAC into PRAC
// changed nothing: under identical seeded streams — random ACT/REF/RFM/
// ALERT traffic over rows the REFs actually reach, then a double-sided
// attack with ALERT back-off — the merged tracker must emit the same
// mitigation sequence, keep the same Stats and ALERT state after every
// call, and report the same Name as the reference.
func TestMoPACMatchesReference(t *testing.T) {
	g := dram.Default()
	m := dram.StridedR2SA
	// Hot rows: two of the rows each of the first eight REFs refreshes, so
	// refreshes clear pending rows as well as idle counters.
	const refs = 8
	var hot []int
	for i := 0; i < refs; i++ {
		tgt := g.RefreshTargetOf(i)
		hot = append(hot, g.RowAt(m, tgt.Subarray, tgt.FirstIdx), g.RowAt(m, tgt.Subarray, tgt.LastIdx))
	}
	for _, p := range []float64{1, 0.25, 0.1} {
		for _, ath := range []int{MoPACDeratedATH(1000, p), 24} {
			t.Run(fmt.Sprintf("p=%v/ath=%d", p, ath), func(t *testing.T) {
				cfg := PRACConfig{Geometry: g, Mapping: m, SampleProb: p, AlertThreshold: ath, Seed: 42}
				pr := newMoPACPair(t, cfg)
				rng := stats.NewRNG(7)
				var now dram.Time
				for i := 0; i < 100000; i++ {
					now += dram.Nanosecond
					switch x := rng.Intn(100); {
					case x < 96:
						pr.act(rng.Intn(2), hot[rng.Intn(len(hot))], now)
					case x < 98:
						pr.refresh(rng.Intn(refs), now)
					case x < 99:
						pr.rfm(rng.Intn(2), now)
					default:
						pr.alert(now)
					}
				}
				pat := attack.DoubleSided(g, m, 2, 300)
				for i := 0; i < 100000; i++ {
					now += dram.Nanosecond
					pr.act(0, pat.Next(), now)
					if pr.got.WantsALERT() {
						pr.alert(now)
					}
					if i%80 == 79 {
						pr.refresh((i/80)%8192, now)
					}
				}
				if pr.ref.Name() != pr.got.Name() {
					t.Errorf("Name ref=%q merged=%q", pr.ref.Name(), pr.got.Name())
				}
				if st := pr.got.Stats; st.Mitigations == 0 || (ath == 24 && st.Evictions == 0) {
					t.Errorf("stream too weak to tell the trackers apart: %+v", st)
				}
			})
		}
	}
}
