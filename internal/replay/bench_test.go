package replay

import (
	"testing"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
	_ "mirza/internal/track/policies"
)

// newXZRunner builds the table8 replay job's shape: xz on 8 cores at its
// Table IV-implied instruction rate into one TRHD=1K tracker per
// sub-channel — MIRZA built directly, other policies from the registry.
func newXZRunner(tb testing.TB, policy string) *Runner {
	tb.Helper()
	spec, err := trace.Lookup("xz")
	if err != nil {
		tb.Fatal(err)
	}
	gs, err := trace.PerCore(spec, 8, 14)
	if err != nil {
		tb.Fatal(err)
	}
	g := dram.Default()
	mits := make([]track.Mitigator, g.SubChannels)
	if policy == "mirza" {
		cfg, _ := core.ForTRHD(1000)
		for i := range mits {
			c := cfg
			c.Seed = 1 + uint64(i)*977
			mits[i] = core.MustNew(c, track.NopSink{})
		}
	} else {
		b, err := track.Build(policy, nil, track.Config{Geometry: g, Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		for i := range mits {
			mits[i] = b.Factory()(i, track.NopSink{})
		}
	}
	r, err := NewRunner(Config{IPS: spec.ImpliedIPS()}, gs, mits)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func (r *Runner) accesses() (n int64) {
	for _, s := range r.stats {
		n += s.Accesses
	}
	return n
}

// TestRunAllocFree pins the replay hot path (generator, vmap, decode,
// open-row filter, tracker, REF walk) to zero allocations once the
// footprint is mapped.
func TestRunAllocFree(t *testing.T) {
	for _, policy := range []string{"mirza", "prac"} {
		t.Run(policy, func(t *testing.T) {
			r := newXZRunner(t, policy)
			until := 100 * dram.Microsecond
			r.Run(until, nil)
			before := r.accesses()
			allocs := testing.AllocsPerRun(10, func() {
				until += 20 * dram.Microsecond
				r.Run(until, nil)
			})
			if allocs != 0 {
				t.Errorf("Run allocates %v times per 20us slice, want 0", allocs)
			}
			if r.accesses() == before {
				t.Error("the measured slices replayed no accesses")
			}
		})
	}
}

// BenchmarkReplay replays xz into MIRZA and PRAC, 100us of simulated time
// per op, and reports the wall time per replayed access.
func BenchmarkReplay(b *testing.B) {
	for _, policy := range []string{"mirza", "prac"} {
		b.Run("xz/"+policy, func(b *testing.B) {
			r := newXZRunner(b, policy)
			r.Run(100*dram.Microsecond, nil)
			before := r.accesses()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Run(r.Now()+100*dram.Microsecond, nil)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.accesses()-before), "ns/access")
		})
	}
}
