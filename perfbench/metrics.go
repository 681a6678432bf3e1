package main

import (
	"fmt"
	"io"
	"time"
)

// metricDef declares one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated share of worsening
}

// endToEnd metrics are measured with tracing off.
var endToEnd = []metricDef{
	{"macc_per_s", "Macc/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.2},
	{"allocs_per_macc", "count/Macc", "lower", 0.1},
}

// perLayer metrics come from a traced run. Counts cover one unit's whole
// simulated stream, warm-up included; a layer a workload does not run
// reports 0.
var perLayer = []metricDef{
	{name: "trace.ops", unit: "count", better: "lower"},
	{name: "trace.ns_per_op", unit: "ns", better: "lower"},
	{name: "trace.self_share", unit: "ratio", better: "lower"},
	{name: "vmap.translations", unit: "count", better: "lower"},
	{name: "vmap.ns_per_translate", unit: "ns", better: "lower"},
	{name: "vmap.blocks_mapped", unit: "count", better: "lower"},
	{name: "vmap.self_share", unit: "ratio", better: "lower"},
	{name: "dram.decodes", unit: "count", better: "lower"},
	{name: "dram.ns_per_decode", unit: "ns", better: "lower"},
	{name: "dram.self_share", unit: "ratio", better: "lower"},
	{name: "core.acts", unit: "count", better: "lower"},
	{name: "core.filtered_ratio", unit: "ratio", better: "higher"},
	{name: "core.escaped", unit: "count", better: "lower"},
	{name: "core.mitigations", unit: "count", better: "lower"},
	{name: "core.alerts", unit: "count", better: "lower"},
	{name: "core.ns_per_act", unit: "ns", better: "lower"},
	{name: "core.self_share", unit: "ratio", better: "lower"},
	{name: "track.acts", unit: "count", better: "lower"},
	{name: "track.mitigations", unit: "count", better: "lower"},
	{name: "track.alerts_wanted", unit: "count", better: "lower"},
	{name: "track.rfms", unit: "count", better: "lower"},
	{name: "track.ns_per_act", unit: "ns", better: "lower"},
	{name: "track.self_share", unit: "ratio", better: "lower"},
	{name: "replay.accesses", unit: "count", better: "higher"},
	{name: "replay.acts", unit: "count", better: "lower"},
	{name: "replay.row_coalesce_ratio", unit: "ratio", better: "higher"},
	{name: "replay.refs", unit: "count", better: "lower"},
	{name: "replay.alerts", unit: "count", better: "lower"},
	{name: "replay.self_ns_per_access", unit: "ns", better: "lower"},
	{name: "replay.self_share", unit: "ratio", better: "lower"},
	{name: "cpu.instructions", unit: "count", better: "higher"},
	{name: "cpu.ipc", unit: "instr/cycle", better: "higher"},
	{name: "mem.reads", unit: "count", better: "higher"},
	{name: "mem.writes", unit: "count", better: "higher"},
	{name: "mem.acts", unit: "count", better: "lower"},
	{name: "mem.refs", unit: "count", better: "lower"},
	{name: "mem.rfms", unit: "count", better: "lower"},
	{name: "mem.alerts", unit: "count", better: "lower"},
	{name: "mem.row_hit_ratio", unit: "ratio", better: "higher"},
	{name: "mem.bus_util_pct", unit: "%", better: "higher"},
	{name: "sim.events", unit: "count", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.self_s", unit: "s", better: "lower"},
	{name: "sim.self_share", unit: "ratio", better: "lower"},
	{name: "traced.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "traced.base_wall_s", unit: "s", better: "lower"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// attribute turns a traced measurement into the per-layer metrics. The base
// is the untraced wall time of one unit (median over the untraced units);
// each layer's self time is its isolated replay time, and the replay (or,
// on the timing workload, the kernel+cpu+mem) self time is what remains.
func (m *measurement) attribute(out io.Writer) (map[string]float64, error) {
	var base, rec float64
	for pi := range m.w.plans {
		base += median(m.runWall[pi])
		rec += m.recWall[pi]
	}
	if base <= 0 {
		return nil, fmt.Errorf("no untraced wall time to attribute")
	}
	c, l := m.counts, m.layers
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = c[d.name]
	}
	overhead := rec/base - 1
	v["traced.overhead_ratio"] = overhead
	v["traced.base_wall_s"] = base

	v["trace.ops"] = float64(l.ops)
	v["trace.ns_per_op"] = ratio(ns(l.trace), float64(l.ops))
	tracker := "track"
	if c["core.acts"] > 0 {
		tracker = "core"
		v["core.filtered_ratio"] = ratio(c["core.filtered"], c["core.acts"])
	}
	v[tracker+".ns_per_act"] = ratio(ns(l.tracker), float64(l.trackerActs))

	type share struct {
		layer string
		secs  float64
	}
	shares := []share{{"trace", l.trace.Seconds()}}
	rest := base - l.trace.Seconds() - l.tracker.Seconds()
	if m.w.plans[0].timing {
		shares = append(shares, share{tracker, l.tracker.Seconds()}, share{"sim", rest})
		v["sim.self_s"] = rest
		v["sim.ns_per_event"] = ratio(rest*1e9, c["sim.events"])
		v["cpu.ipc"] = ratio(c["cpu.ipc_sum"], c["cpu.cores"])
		v["mem.row_hit_ratio"] = ratio(c["mem.row_hits"], c["mem.row_hits"]+c["mem.row_misses"])
		v["mem.bus_util_pct"] = 100 * ratio(c["mem.bus_busy_ps"], c["mem.bus_span_ps"])
	} else {
		rest -= l.vmap.Seconds() + l.dram.Seconds()
		shares = append(shares, share{"vmap", l.vmap.Seconds()}, share{"dram", l.dram.Seconds()},
			share{tracker, l.tracker.Seconds()}, share{"replay", rest})
		v["vmap.translations"] = float64(l.translations)
		v["vmap.ns_per_translate"] = ratio(ns(l.vmap), float64(l.translations))
		v["dram.decodes"] = float64(l.translations) // one decode per translated address
		v["dram.ns_per_decode"] = ratio(ns(l.dram), float64(l.translations))
		v["replay.row_coalesce_ratio"] = 1 - ratio(c["replay.acts"], c["replay.accesses"])
		v["replay.self_ns_per_access"] = ratio(rest*1e9, c["replay.accesses"])
	}
	if rest < -max(overhead, 0)*base {
		m.findings = append(m.findings, fmt.Sprintf(
			"isolated layers take %.3f s, more than the untraced wall %.3f s plus the tracing overhead", base-rest, base))
	}

	fmt.Fprintf(out, "attribution of one unit: base %.3f s untraced wall (median of %d units), tracing overhead %+.1f%%\n",
		base, len(m.runWall[0]), 100*overhead)
	for _, s := range shares {
		v[s.layer+".self_share"] = s.secs / base
		fmt.Fprintf(out, "  %-7s self %8.3f s  %5.1f%% of base\n", s.layer, s.secs, 100*s.secs/base)
	}
	return v, nil
}
