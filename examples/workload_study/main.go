// Workload study: run one of the paper's workloads end-to-end on the
// full-system simulator — 8 trace-driven cores over a DDR5 channel — under
// the unprotected baseline, MIRZA, and PRAC+ABO, and compare IPC, bus
// utilisation, ALERT activity and refresh-power overhead. This is the
// Figure 11 measurement for a single workload, at example scale.
//
//	go run ./examples/workload_study -workload fotonik3d -ms 1
package main

import (
	"flag"
	"fmt"

	"mirza/internal/core"
	"mirza/internal/cpu"
	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/trace"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

func main() {
	workload := flag.String("workload", "fotonik3d", "Table IV workload name")
	ms := flag.Float64("ms", 1.0, "measured milliseconds (after 0.25ms warmup)")
	flag.Parse()

	spec, err := trace.Lookup(*workload)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload %s: MPKI %.1f, ACT-PKI %.1f, %d MB/core footprint\n\n",
		spec.Name, spec.MPKI, spec.ACTPKI, spec.FootprintMB)

	type result struct {
		name    string
		ipc     float64
		bus     float64
		alerts  int64
		victims int64
		demand  int64
	}
	run := func(name string, timing dram.Timing, factory func(sub int, sink track.Sink) track.Mitigator) result {
		gens, err := trace.PerCore(spec, 8, 1)
		if err != nil {
			panic(err)
		}
		sys, err := cpu.NewSystem(cpu.SystemConfig{
			Core: cpu.CoreConfig{MSHR: spec.MLPLimit()},
			Mem: mem.Config{
				Timing:       timing,
				Mapping:      dram.StridedR2SA,
				NewMitigator: factory,
			},
		}, gens)
		if err != nil {
			panic(err)
		}
		warm := dram.Millisecond / 4
		sys.Run(warm)
		sys.Snapshot()
		sys.Run(warm + dram.Time(*ms*float64(dram.Millisecond)))
		var ipc float64
		for _, v := range sys.IPCs() {
			ipc += v
		}
		st := sys.MemStats()
		return result{name, ipc / 8, sys.BusUtilization(), st.Alerts, st.VictimRows, st.DemandRefreshRows}
	}

	baseline := run("unprotected", dram.DDR5(), nil)
	mirza := run("MIRZA (TRHD=1K)", dram.DDR5(), func(sub int, sink track.Sink) track.Mitigator {
		cfg, _ := core.ForTRHD(1000)
		cfg.Seed = uint64(sub)
		return core.MustNew(cfg, sink)
	})
	prac := run("PRAC+ABO", dram.PRAC(), func(sub int, sink track.Sink) track.Mitigator {
		m, err := policies.NewPRAC(policies.PRACConfig{
			Geometry: dram.Default(), Mapping: dram.StridedR2SA,
			AlertThreshold: policies.ATHForTRHD(1000),
		}, sink)
		if err != nil {
			panic(err)
		}
		return m
	})

	fmt.Printf("%-16s %8s %10s %9s %8s %13s\n",
		"configuration", "IPC/core", "slowdown", "bus util", "ALERTs", "refresh power")
	for _, r := range []result{baseline, mirza, prac} {
		slow := 100 * (1 - r.ipc/baseline.ipc)
		rp := 0.0
		if r.demand > 0 {
			rp = 100 * float64(r.victims) / float64(r.demand)
		}
		fmt.Printf("%-16s %8.3f %9.2f%% %8.1f%% %8d %12.2f%%\n",
			r.name, r.ipc, slow, r.bus, r.alerts, rp)
	}
	fmt.Println("\n(PRAC's slowdown comes from its inflated tRP/tRC even with zero ALERTs;")
	fmt.Println(" MIRZA keeps baseline timings and alerts only when filtering is escaped.)")
}
