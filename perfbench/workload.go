package main

import (
	"fmt"
	"io"
	"math"

	"mirza/internal/core"
	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/replay"
	"mirza/internal/trace"
	"mirza/internal/track"
	// The registry is empty until the policies package registers them;
	// without this import track.Build fails for every policy.
	_ "mirza/internal/track/policies"
)

// Settings shared with internal/experiments, so each run is built the way
// the experiment jobs build theirs.
const (
	cores            = 8
	trhd             = 1000
	mirzaSeedStride  = 977 // per-sub-channel MIRZA seed step (experiments.mirzaMits)
	replayGenSeedOff = 13  // replay generator seed offset (Exec.replayRun)
)

// plan is one simulation of a workload: one Table IV trace driven into one
// tracker, either through the replayer or the full timing simulator.
type plan struct {
	trace   string // Table IV workload name
	policy  string // "mirza" (core.Mirza) or a track registry name
	timing  bool   // full timing simulator (cpu+mem+sim) instead of replay
	warmup  dram.Time
	measure dram.Time
	slices  int       // the measured window is timed in this many slices
	segment dram.Time // traced runs pause every segment to replay the layers
}

func (p plan) String() string {
	engine := "replay"
	if p.timing {
		engine = "timing"
	}
	return fmt.Sprintf("%s/%s/%s", engine, p.trace, p.policy)
}

// replayPlan mirrors the table8/fig11b/fig13 replay job: one warm-up tREFW
// and one measured tREFW (experiments' default ReplayWindows = 2).
func replayPlan(workload, policy string) plan {
	w := dram.DDR5().TREFW
	return plan{trace: workload, policy: policy, warmup: w, measure: w, slices: 8, segment: w / 16}
}

// timingPlan mirrors the fig3 timing job with the default 0.5 ms warm-up
// and 1.5 ms measured window.
func timingPlan(workload, policy string) plan {
	return plan{trace: workload, policy: policy, timing: true,
		warmup: dram.Millisecond / 2, measure: 3 * dram.Millisecond / 2,
		slices: 6, segment: dram.Millisecond / 4}
}

// workload is a named set of plans run back to back; one pass over all of
// them is a unit, the fixed amount of work whose outputs are checked.
type workload struct {
	name  string
	plans []plan
}

var workloads = []workload{
	{"replay_mirza", []plan{replayPlan("xz", "mirza"), replayPlan("bc", "mirza")}},
	{"replay_prac", []plan{replayPlan("xz", "prac"), replayPlan("bc", "prac")}},
	{"timing_fig3", []plan{
		timingPlan("xz", "mint-rfm"), timingPlan("xz", "prac"),
		timingPlan("fotonik3d", "mint-rfm"), timingPlan("fotonik3d", "prac"),
	}},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// simulation is one constructed plan, advanced in steps of simulated time.
type simulation interface {
	advance(until dram.Time)
	// accesses is the number of memory accesses simulated so far.
	accesses() int64
	// mark starts the measured window.
	mark()
	// digest writes every simulated statistic in a canonical form.
	digest(w io.Writer)
	// check verifies invariants that hold at any seed.
	check() error
	// addCounts adds the run's per-layer counts to m.
	addCounts(m map[string]float64)
	// trackers returns the live trackers, never their recording wrappers.
	trackers() []track.Mitigator
}

// newTrackers builds one tracker per sub-channel with a no-op sink: MIRZA
// exactly as experiments.mirzaMits does, other policies through the
// registry as Exec.buildPolicy does.
func newTrackers(policy string, seed uint64) ([]track.Mitigator, error) {
	g := dram.Default()
	out := make([]track.Mitigator, g.SubChannels)
	if policy == "mirza" {
		cfg, err := core.ForTRHD(trhd)
		if err != nil {
			return nil, err
		}
		for i := range out {
			c := cfg
			c.Seed = seed + uint64(i)*mirzaSeedStride
			m, err := core.New(c, track.NopSink{})
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil
	}
	b, err := buildPolicy(policy, seed)
	if err != nil {
		return nil, err
	}
	for i := range out {
		out[i] = b.Factory()(i, track.NopSink{})
	}
	return out, nil
}

func buildPolicy(policy string, seed uint64) (*track.Built, error) {
	return track.Build(policy, nil, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     trhd,
		Seed:     seed,
	})
}

// build constructs p at seed. A non-nil tracer gets recording wrappers
// around every generator and tracker.
func build(p plan, seed uint64, tr *tracer) (simulation, error) {
	spec, err := trace.Lookup(p.trace)
	if err != nil {
		return nil, err
	}
	if p.timing {
		return buildTiming(p, spec, seed, tr)
	}
	gens, err := trace.PerCore(spec, cores, seed+replayGenSeedOff)
	if err != nil {
		return nil, err
	}
	mits, err := newTrackers(p.policy, seed)
	if err != nil {
		return nil, err
	}
	live := mits
	if tr != nil {
		if gens, err = tr.wrapGens(gens); err != nil {
			return nil, err
		}
		live = tr.wrapMits(mits)
	}
	// The replay time axis is the Table IV-implied instruction rate, the
	// target the experiments' calibration run converges to.
	run, err := replay.NewRunner(replay.Config{IPS: spec.ImpliedIPS()}, gens, live)
	if err != nil {
		return nil, err
	}
	return &replaySim{run: run, mits: mits}, nil
}

// buildTiming assembles the full system as Exec.newSystem does, with the
// workload's uncalibrated MLP budget.
func buildTiming(p plan, spec trace.WorkloadSpec, seed uint64, tr *tracer) (simulation, error) {
	gens, err := trace.PerCore(spec, cores, seed)
	if err != nil {
		return nil, err
	}
	b, err := buildPolicy(p.policy, seed)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if gens, err = tr.wrapGens(gens); err != nil {
			return nil, err
		}
	}
	s := &timingSim{mits: make([]track.Mitigator, dram.Default().SubChannels)}
	factory := b.Factory()
	sys, err := cpu.NewSystem(cpu.SystemConfig{
		Cores: cores,
		Core:  cpu.CoreConfig{MSHR: spec.MLPLimit()},
		Mem: mem.Config{
			Timing:  b.Timing(),
			Mapping: dram.StridedR2SA,
			RFMBAT:  b.RFMBAT(),
			NewMitigator: func(sub int, sink track.Sink) track.Mitigator {
				m := factory(sub, sink)
				s.mits[sub] = m
				if tr != nil {
					return tr.wrapMit(sub, m)
				}
				return m
			},
		},
	}, gens)
	if err != nil {
		return nil, err
	}
	s.sys = sys
	return s, nil
}

// trackerStats renders a tracker's counters: MIRZA's full statistics, the
// common track.Stats for every other policy.
func trackerStats(m track.Mitigator) string {
	if mz, ok := m.(*core.Mirza); ok {
		return fmt.Sprintf("%+v", mz.Stats)
	}
	if s, ok := m.(track.StatsSource); ok {
		return fmt.Sprintf("%+v", s.TrackStats())
	}
	return "no-stats"
}

func commonStats(m track.Mitigator) track.Stats {
	if s, ok := m.(track.StatsSource); ok {
		return s.TrackStats()
	}
	return track.Stats{}
}

// addTrackerCounts adds MIRZA counters under core.* and every other
// policy's counters under track.*.
func addTrackerCounts(m map[string]float64, mits []track.Mitigator) {
	for _, t := range mits {
		if mz, ok := t.(*core.Mirza); ok {
			m["core.acts"] += float64(mz.Stats.ACTs)
			m["core.filtered"] += float64(mz.Stats.Filtered)
			m["core.escaped"] += float64(mz.Stats.Escaped)
			m["core.mitigations"] += float64(mz.Stats.Mitigations)
			m["core.alerts"] += float64(mz.Stats.AlertsRaised)
			continue
		}
		s := commonStats(t)
		m["track.acts"] += float64(s.ACTs)
		m["track.mitigations"] += float64(s.Mitigations)
		m["track.alerts_wanted"] += float64(s.AlertsWanted)
		m["track.rfms"] += float64(s.RFMs)
	}
}

// replaySim is a replay.Runner driving one tracker per sub-channel.
type replaySim struct {
	run  *replay.Runner
	mits []track.Mitigator // the trackers themselves, never the wrappers
	warm []replay.Stats
}

func (s *replaySim) advance(until dram.Time)     { s.run.Run(until, nil) }
func (s *replaySim) trackers() []track.Mitigator { return s.mits }

func (s *replaySim) accesses() int64 {
	var n int64
	for _, st := range s.run.Stats() {
		n += st.Accesses
	}
	return n
}

func (s *replaySim) mark() { s.warm = s.run.Stats() }

func (s *replaySim) digest(w io.Writer) {
	fmt.Fprintf(w, "replay now=%d\n", s.run.Now())
	for i, st := range s.run.Stats() {
		fmt.Fprintf(w, "sub%d warm=%+v final=%+v tracker=%s\n", i, s.warm[i], st, trackerStats(s.mits[i]))
	}
}

func (s *replaySim) check() error {
	refs := int64(s.run.Now() / dram.DDR5().TREFI)
	for i, st := range s.run.Stats() {
		switch ts := commonStats(s.mits[i]); {
		case st.Accesses == 0:
			return fmt.Errorf("sub%d: no accesses replayed", i)
		case st.ACTs > st.Accesses:
			return fmt.Errorf("sub%d: %d ACTs exceed %d accesses", i, st.ACTs, st.Accesses)
		case st.REFs != refs:
			return fmt.Errorf("sub%d: %d REFs, want %d at t=%d", i, st.REFs, refs, s.run.Now())
		case ts.ACTs != st.ACTs:
			return fmt.Errorf("sub%d: tracker saw %d ACTs, replay issued %d", i, ts.ACTs, st.ACTs)
		}
		if mz, ok := s.mits[i].(*core.Mirza); ok && mz.Stats.Filtered+mz.Stats.Escaped != mz.Stats.ACTs {
			return fmt.Errorf("sub%d: MIRZA filtered %d + escaped %d != %d ACTs",
				i, mz.Stats.Filtered, mz.Stats.Escaped, mz.Stats.ACTs)
		}
	}
	return nil
}

func (s *replaySim) addCounts(m map[string]float64) {
	for _, st := range s.run.Stats() {
		m["replay.accesses"] += float64(st.Accesses)
		m["replay.acts"] += float64(st.ACTs)
		m["replay.refs"] += float64(st.REFs)
		m["replay.alerts"] += float64(st.Alerts)
	}
	addTrackerCounts(m, s.mits)
}

// timingSim is the full cpu+mem+sim system.
type timingSim struct {
	sys  *cpu.System
	mits []track.Mitigator // captured from the factory, unwrapped
}

func (s *timingSim) advance(until dram.Time)     { s.sys.Run(until) }
func (s *timingSim) trackers() []track.Mitigator { return s.mits }

func (s *timingSim) accesses() int64 {
	st := s.sys.Channel.Stats()
	return st.Reads + st.Writes
}

func (s *timingSim) mark() { s.sys.Snapshot() }

func (s *timingSim) digest(w io.Writer) {
	fmt.Fprintf(w, "timing now=%d events=%d\n", s.sys.Kernel.Now(), s.sys.Kernel.Executed())
	fmt.Fprintf(w, "mem window=%+v total=%+v\n", s.sys.MemStats(), s.sys.Channel.Stats())
	for i, ipc := range s.sys.IPCs() {
		fmt.Fprintf(w, "core%d ipc=%x retired=%d\n", i, math.Float64bits(ipc), s.sys.Cores[i].Retired())
	}
	for i, m := range s.mits {
		fmt.Fprintf(w, "sub%d tracker=%s\n", i, trackerStats(m))
	}
}

func (s *timingSim) check() error {
	st := s.sys.Channel.Stats()
	var acts int64
	for _, m := range s.mits {
		acts += commonStats(m).ACTs
	}
	switch {
	case st.Reads == 0:
		return fmt.Errorf("no reads served")
	case acts != st.ACTs:
		return fmt.Errorf("trackers saw %d ACTs, the channel issued %d", acts, st.ACTs)
	}
	for i, ipc := range s.sys.IPCs() {
		if !(ipc > 0) {
			return fmt.Errorf("core%d: IPC %v over the measured window", i, ipc)
		}
	}
	return nil
}

func (s *timingSim) addCounts(m map[string]float64) {
	for _, c := range s.sys.Cores {
		m["cpu.instructions"] += float64(c.Retired())
		m["vmap.translations"] += float64(c.Reads + c.Writes)
	}
	for _, ipc := range s.sys.IPCs() {
		m["cpu.ipc_sum"] += ipc
	}
	m["cpu.cores"] += float64(len(s.sys.Cores))
	m["vmap.blocks_mapped"] += float64(s.sys.Mapper.MappedBlocks())
	st := s.sys.Channel.Stats()
	m["mem.reads"] += float64(st.Reads)
	m["mem.writes"] += float64(st.Writes)
	m["mem.acts"] += float64(st.ACTs)
	m["mem.refs"] += float64(st.REFs)
	m["mem.rfms"] += float64(st.RFMs)
	m["mem.alerts"] += float64(st.Alerts)
	m["mem.row_hits"] += float64(st.RowHits)
	m["mem.row_misses"] += float64(st.RowMisses)
	m["mem.bus_busy_ps"] += float64(st.BusBusy)
	m["mem.bus_span_ps"] += float64(s.sys.Kernel.Now()) * float64(s.sys.Channel.Geometry().SubChannels)
	m["sim.events"] += float64(s.sys.Kernel.Executed())
	addTrackerCounts(m, s.mits)
}
