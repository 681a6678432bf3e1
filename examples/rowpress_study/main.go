// RowPress study: exercise the two extension features beyond the paper's
// core. First, RowPress weighting — the threat model (Section II.A) assumes
// row-open time is converted into equivalent activations; this example
// shows a row held open by a hit stream charging the tracker extra
// equivalent ACTs. Second, the MoPAC baseline from the related work: PRAC
// with probabilistic counter updates, trading ALERT-threshold slack for
// baseline-like timings.
//
//	go run ./examples/rowpress_study
package main

import (
	"fmt"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/mem"
	"mirza/internal/sim"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

func main() {
	fmt.Println("--- RowPress weighting ---")
	for _, weighting := range []bool{false, true} {
		counter := track.NewNop()
		k := &sim.Kernel{}
		ch, err := mem.NewChannel(k, mem.Config{
			RowPressWeighting: weighting,
			NewMitigator: func(sub int, sink track.Sink) track.Mitigator {
				if sub == 0 {
					return counter
				}
				return track.NewNop()
			},
		})
		if err != nil {
			panic(err)
		}
		// 60 queued hits keep one row open for ~16 tRAS before it closes.
		for i := 0; i < 60; i++ {
			addr := ch.Geometry().Compose(dram.Address{Bank: 2, Row: 42, Col: i % 60})
			ch.Submit(&mem.Request{Addr: addr})
		}
		k.RunUntil(20 * dram.Microsecond)
		fmt.Printf("  weighting=%-5v tracker observed %d ACT-equivalents for 1 real ACT\n",
			weighting, counter.Stats.ACTs)
	}
	fmt.Println("  (a long-open row disturbs neighbours like extra activations;")
	fmt.Println("   with weighting on, trackers see and mitigate that pressure)")

	fmt.Println("\n--- MoPAC: probabilistic PRAC counting ---")
	g := dram.Default()
	for _, p := range []float64{1.0, 0.25, 0.125} {
		ath := policies.MoPACDeratedATH(1000, p)
		m, err := policies.NewPRAC(policies.PRACConfig{
			Geometry: g, Mapping: dram.StridedR2SA,
			SampleProb: p, AlertThreshold: ath, Seed: 7,
		}, track.NopSink{})
		if err != nil {
			panic(err)
		}
		acts := 0
		for !m.WantsALERT() && acts < 100000 {
			m.OnActivate(0, 777, 0)
			acts++
		}
		fmt.Printf("  p=%-6.3f derated ATH=%-4d ALERT after %5d ACTs (deterministic budget %d)\n",
			p, ath, acts, policies.ATHForTRHD(1000))
	}
	fmt.Println("  (lower sampling keeps PRAC's timings near baseline but burns")
	fmt.Println("   threshold budget as statistical slack — and the per-row DRAM")
	fmt.Println("   counters remain, which is the overhead MIRZA avoids entirely)")

	fmt.Println("\n--- MIRZA for contrast ---")
	cfg, _ := core.ForTRHD(1000)
	fmt.Printf("  MIRZA at the same threshold: %d bytes SRAM/bank, no DRAM-array\n",
		cfg.SRAMBytesPerBank())
	fmt.Println("  counters, no timing inflation, mitigation only on ALERT.")
}
