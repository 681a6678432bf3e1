package mem

import (
	"testing"

	"mirza/internal/dram"
	"mirza/internal/sim"
	"mirza/internal/stats"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

// Differential test: the redesigned struct-of-arrays fast-forward command
// path must issue exactly the command stream — same commands, same banks,
// same rows, same picosecond timestamps — as the preserved legacy
// implementation (legacy_ref_test.go), for every protocol feature at
// once: row hits/conflicts, tFAW storms, soft close-page, REF, proactive
// RFM, ALERT-Back-Off, writes, RowPress weighting, and a geometry wider
// than one bitset word.

// diffCmd is one observed command, comparable with ==.
type diffCmd struct {
	kind   string
	sub    int
	bank   int
	row    int
	forced bool
	write  bool
	phase  AlertPhase
	at     dram.Time
}

// diffObs records every command into a flat stream. With depth set it
// also tracks the deepest any sub-channel queue got, sampled at each
// submit.
type diffObs struct {
	cmds  []diffCmd
	depth func(sub int) int
	peak  int
}

func (o *diffObs) ObserveSubmit(sub int, write bool, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "submit", sub: sub, write: write, at: now})
	if o.depth != nil {
		o.peak = max(o.peak, o.depth(sub))
	}
}
func (o *diffObs) ObserveACT(sub, bank, row int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "act", sub: sub, bank: bank, row: row, at: now})
}
func (o *diffObs) ObservePRE(sub, bank int, forced bool, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "pre", sub: sub, bank: bank, forced: forced, at: now})
}
func (o *diffObs) ObserveRead(sub, bank, row int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "read", sub: sub, bank: bank, row: row, at: now})
}
func (o *diffObs) ObserveWrite(sub, bank, row int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "write", sub: sub, bank: bank, row: row, at: now})
}
func (o *diffObs) ObserveREF(sub, refIndex int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "ref", sub: sub, bank: refIndex, at: now})
}
func (o *diffObs) ObserveRFM(sub, bank int, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "rfm", sub: sub, bank: bank, at: now})
}
func (o *diffObs) ObserveAlert(sub int, phase AlertPhase, now dram.Time) {
	o.cmds = append(o.cmds, diffCmd{kind: "alert", sub: sub, phase: phase, at: now})
}

// submitter is a mem-facing request source: both channel flavours satisfy
// it.
type submitter interface {
	Submit(r *Request)
	Geometry() dram.Geometry
}

// diffFeeder replays a fixed pseudo-random request schedule into a
// channel, one typed event rescheduled per batch.
type diffFeeder struct {
	k     *sim.Kernel
	ch    submitter
	rng   *stats.RNG
	ev    sim.Event
	left  int
	gap   dram.Time
	hot   int // rows hammered to trip trackers
	dones []dram.Time
}

func newDiffFeeder(k *sim.Kernel, ch submitter, seed uint64, n int, gap dram.Time) *diffFeeder {
	f := &diffFeeder{k: k, ch: ch, rng: stats.NewRNG(seed), left: n, gap: gap, hot: 4}
	f.ev.Bind(f)
	k.ScheduleEvent(&f.ev, 0)
	return f
}

func (f *diffFeeder) Fire(now dram.Time) {
	g := f.ch.Geometry()
	// A small batch per firing keeps several requests in flight, creating
	// hits, conflicts, and cross-bank tFAW pressure.
	batch := 1 + f.rng.Intn(4)
	for i := 0; i < batch && f.left > 0; i++ {
		f.left--
		var addr dram.Address
		addr.SubChannel = f.rng.Intn(g.SubChannels)
		addr.Bank = f.rng.Intn(g.BanksPerSubChannel)
		switch f.rng.Intn(4) {
		case 0: // hammer a hot row (trips PRAC / BAT counters)
			addr.Row = f.rng.Intn(f.hot)
		case 1: // revisit a warm set (row hits)
			addr.Row = 64 + f.rng.Intn(8)
		default: // scatter (conflicts, close-page)
			addr.Row = f.rng.Intn(g.RowsPerBank)
		}
		idx := len(f.dones)
		f.dones = append(f.dones, 0)
		r := &Request{
			Addr:  g.Compose(addr),
			Write: f.rng.Intn(5) == 0,
			Done:  func(at dram.Time) { f.dones[idx] = at },
		}
		f.ch.Submit(r)
	}
	if f.left > 0 {
		jitter := dram.Time(f.rng.Int63n(int64(f.gap)))
		f.k.ScheduleEvent(&f.ev, now+f.gap+jitter)
	}
}

// diffScenario runs one traffic schedule against a channel flavour and
// returns the observed command stream, final stats, and (new path only)
// the peak per-sub-channel queue depth.
func diffScenario(t *testing.T, cfg Config, build func(*sim.Kernel, Config) (submitter, func() Stats), seed uint64, n int, gap, horizon dram.Time) ([]diffCmd, Stats, int) {
	t.Helper()
	k := &sim.Kernel{}
	ch, stats := build(k, cfg)
	obs := &diffObs{}
	switch c := ch.(type) {
	case *Channel:
		obs.depth = func(sub int) int { return c.SubChannel(sub).PendingRequests() }
		c.InstallObserver(obs)
	case *LegacyChannel:
		c.InstallObserver(obs)
	}
	newDiffFeeder(k, ch, seed, n, gap)
	k.RunUntil(horizon)
	return obs.cmds, stats(), obs.peak
}

func buildNew(k *sim.Kernel, cfg Config) (submitter, func() Stats) {
	ch, err := NewChannel(k, cfg)
	if err != nil {
		panic(err)
	}
	return ch, ch.Stats
}

func buildLegacy(k *sim.Kernel, cfg Config) (submitter, func() Stats) {
	ch, err := NewLegacyChannel(k, cfg)
	if err != nil {
		panic(err)
	}
	return ch, ch.Stats
}

func TestDifferentialCommandStream(t *testing.T) {
	geomWide := dram.Default()
	geomWide.BanksPerSubChannel = 128 // > 64: spans multiple bitset words
	pracFactory := func(sub int, sink track.Sink) track.Mitigator {
		m, err := policies.NewPRAC(policies.PRACConfig{
			Geometry:       dram.Default(),
			AlertThreshold: 24, // low enough that the hot rows trip ALERT
		}, sink)
		if err != nil {
			panic(err)
		}
		return m
	}
	cases := []struct {
		name string
		cfg  Config
		n    int
		gap  dram.Time
	}{
		{
			name: "baseline-mixed",
			cfg:  Config{},
			n:    4000,
			gap:  20 * dram.Nanosecond,
		},
		{
			name: "rfm-rowpress",
			cfg:  Config{RFMBAT: 16, RowPressWeighting: true},
			n:    4000,
			gap:  15 * dram.Nanosecond,
		},
		{
			name: "prac-alert",
			cfg:  Config{NewMitigator: pracFactory, Timing: dram.PRAC(), RowPressWeighting: true},
			n:    5000,
			gap:  10 * dram.Nanosecond,
		},
		{
			name: "wide-geometry",
			cfg:  Config{Geometry: geomWide, RFMBAT: 12},
			n:    3000,
			gap:  12 * dram.Nanosecond,
		},
		{
			name: "idle-bursts", // long empty-queue spans exercise fast-forward
			cfg:  Config{RFMBAT: 24},
			n:    600,
			gap:  600 * dram.Nanosecond,
		},
		{
			// Queues deeper than the window: arrivals beyond it,
			// arrivalWake's beyond-window branch, and entries joining the
			// window as older ones are served.
			name: "small-window",
			cfg:  Config{WindowDepth: 8, RFMBAT: 16},
			n:    4000,
			gap:  15 * dram.Nanosecond,
		},
	}
	const horizon = 300 * dram.Microsecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			gotCmds, gotStats, peak := diffScenario(t, tc.cfg, buildNew, 99, tc.n, tc.gap, horizon)
			wantCmds, wantStats, _ := diffScenario(t, tc.cfg, buildLegacy, 99, tc.n, tc.gap, horizon)
			if len(gotCmds) == 0 {
				t.Fatal("scenario produced no commands")
			}
			if gotStats != wantStats {
				t.Errorf("stats diverged:\n new: %+v\n old: %+v", gotStats, wantStats)
			}
			n := len(gotCmds)
			if len(wantCmds) != n {
				t.Errorf("command count: new %d, legacy %d", n, len(wantCmds))
				if len(wantCmds) < n {
					n = len(wantCmds)
				}
			}
			mismatches := 0
			for i := 0; i < n; i++ {
				if gotCmds[i] != wantCmds[i] {
					t.Errorf("cmd %d diverged:\n new: %+v\n old: %+v", i, gotCmds[i], wantCmds[i])
					if mismatches++; mismatches > 5 {
						t.Fatal("too many divergences; stopping")
					}
				}
			}
			// Sanity: the scenarios must actually exercise their features.
			assertCoverage(t, tc.name, gotStats)
			if d := tc.cfg.WindowDepth; d > 0 && peak <= d {
				t.Errorf("peak queue depth %d never exceeded WindowDepth %d", peak, d)
			}
		})
	}
}

func assertCoverage(t *testing.T, name string, st Stats) {
	t.Helper()
	checks := []struct {
		label string
		ok    bool
	}{
		{"reads", st.Reads > 0},
		{"writes", st.Writes > 0},
		{"acts", st.ACTs > 0},
		{"refs", st.REFs > 0},
	}
	switch name {
	case "rfm-rowpress", "wide-geometry", "small-window":
		checks = append(checks, struct {
			label string
			ok    bool
		}{"rfms", st.RFMs > 0})
	case "prac-alert":
		checks = append(checks, struct {
			label string
			ok    bool
		}{"alerts", st.Alerts > 0})
	}
	for _, c := range checks {
		if !c.ok {
			t.Errorf("scenario %s never exercised %s: %+v", name, c.label, st)
		}
	}
}

// TestDifferentialDrain checks completion-time equality request by request
// on a drain-to-empty run (every submitted request completes, so the Done
// streams line up index for index).
func TestDifferentialDrain(t *testing.T) {
	cfg := Config{RFMBAT: 20, RowPressWeighting: true}
	run := func(build func(*sim.Kernel, Config) (submitter, func() Stats)) []dram.Time {
		k := &sim.Kernel{}
		ch, _ := build(k, cfg)
		f := newDiffFeeder(k, ch, 7, 2000, 25*dram.Nanosecond)
		k.RunUntil(2 * dram.Millisecond)
		return f.dones
	}
	got := run(buildNew)
	want := run(buildLegacy)
	if len(got) != len(want) {
		t.Fatalf("request count: new %d, legacy %d", len(got), len(want))
	}
	for i := range got {
		if got[i] == 0 {
			t.Fatalf("request %d never completed on the new path", i)
		}
		if got[i] != want[i] {
			t.Fatalf("request %d completion: new %v, legacy %v", i, got[i], want[i])
		}
	}
}
