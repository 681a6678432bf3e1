package policies

import (
	"runtime"
	"testing"
	"testing/quick"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
)

func TestSpaceSavingOverestimates(t *testing.T) {
	// Property: Space-Saving never underestimates a row's true count.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		ss := newSpaceSaving(8, 1<<17)
		truth := map[int]int64{}
		for i := 0; i < 2000; i++ {
			row := rng.Intn(40)
			truth[row]++
			ss.observe(row)
		}
		for _, e := range ss.entries {
			if e.count < truth[e.row] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMithrilEntriesCapIndexHint: a bank's table can never hold more rows
// than the bank has, so an oversized entries parameter must not pre-size
// more index slots than RowsPerBank (4M entries once cost gigabytes per
// Build).
func TestMithrilEntriesCapIndexHint(t *testing.T) {
	g := dram.Default()
	g.BanksPerSubChannel = 2 // the cap is per bank; two keep the test light
	alloc := func(entries string) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b, err := track.Build("mithril", map[string]string{"entries": entries},
			track.Config{Geometry: g, Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(b)
		return after.TotalAlloc - before.TotalAlloc
	}
	rows := alloc("131072")
	huge := alloc("4000000")
	const slack = 64 << 10 // unrelated runtime allocations between the reads
	if huge > rows+slack {
		t.Errorf("Build(mithril:entries=4000000) allocated %d bytes, more than entries=131072 (%d)", huge, rows)
	}
}
