package core

import (
	"testing"

	"mirza/internal/dram"
)

// regionOf is the division-based region rule that regionMap precomputes,
// kept as the reference it must match: whole subarrays group into a
// region when Regions <= subarrays, and a subarray splits into equal
// physical-index stripes when Regions > subarrays.
func (c Config) regionOf(row int) int {
	g := c.Geometry
	sa := g.Subarray(c.Mapping, row)
	s := g.Subarrays()
	if c.Regions <= s {
		return sa / (s / c.Regions)
	}
	perSA := c.Regions / s
	regionRows := g.SubarrayRows / perSA
	return sa*perSA + g.PhysicalIndex(c.Mapping, row)/regionRows
}

// edgeNeighborRegion is the reference edge-row rule (footnote 3 of
// Section VI.B): the adjacent region a row on an intra-subarray region
// boundary also increments, or -1.
func (c Config) edgeNeighborRegion(row int) int {
	g := c.Geometry
	s := g.Subarrays()
	if c.Regions <= s {
		return -1
	}
	perSA := c.Regions / s
	regionRows := g.SubarrayRows / perSA
	idx := g.PhysicalIndex(c.Mapping, row)
	within := idx % regionRows
	sa := g.Subarray(c.Mapping, row)
	base := sa * perSA
	switch {
	case within == 0 && idx > 0:
		return base + idx/regionRows - 1
	case within == regionRows-1 && idx < g.SubarrayRows-1:
		return base + idx/regionRows + 1
	default:
		return -1
	}
}

// TestRegionMapMatchesReference checks every row of a bank, for every
// Table VII preset under both row-to-subarray mappings: the precomputed
// shift/mask region and edge neighbour equal the reference formulas.
// TRHD=500 (256 regions over 128 subarrays) covers the split path with
// its edge rows; the others cover subarray grouping.
func TestRegionMapMatchesReference(t *testing.T) {
	for _, trhd := range []int{500, 1000, 2000, 4800} {
		for _, mapping := range []dram.R2SAMapping{dram.StridedR2SA, dram.SequentialR2SA} {
			cfg, err := ForTRHD(trhd)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Mapping = mapping
			rm := newRegionMap(cfg)
			edges := 0
			for row := 0; row < cfg.Geometry.RowsPerBank; row++ {
				region, edge := rm.of(row)
				if want := cfg.regionOf(row); region != want {
					t.Fatalf("TRHD=%d %v row %d: region %d, reference %d", trhd, mapping, row, region, want)
				}
				if want := cfg.edgeNeighborRegion(row); edge != want {
					t.Fatalf("TRHD=%d %v row %d: edge neighbour %d, reference %d", trhd, mapping, row, edge, want)
				}
				if edge >= 0 {
					edges++
				}
			}
			// Two edge rows per intra-subarray boundary; one boundary per
			// subarray at 256 regions, none otherwise.
			wantEdges := 0
			if trhd == 500 {
				wantEdges = 2 * cfg.Geometry.Subarrays()
			}
			if edges != wantEdges {
				t.Errorf("TRHD=%d %v: %d edge rows, want %d", trhd, mapping, edges, wantEdges)
			}
		}
	}
}

// TestOnActivateAllocFree pins the per-ACT path to zero allocations,
// filtered and escaping ACTs alike.
func TestOnActivateAllocFree(t *testing.T) {
	cfg, _ := ForTRHD(500)
	m := MustNew(cfg, nil)
	g := cfg.Geometry
	hot := g.RowAt(cfg.Mapping, 3, 511) // an edge row, driven past FTH
	row := 0
	allocs := testing.AllocsPerRun(20000, func() {
		m.OnActivate(row&31, row*7919%g.RowsPerBank, 0)
		m.OnActivate(0, hot, 0)
		if m.WantsALERT() {
			m.ServiceALERT(0)
		}
		row++
	})
	if allocs != 0 {
		t.Errorf("OnActivate allocates %v times per iteration, want 0", allocs)
	}
	if m.Stats.Escaped == 0 || m.Stats.EdgeDouble == 0 {
		t.Errorf("the loop must exercise escapes and edge rows: %+v", m.Stats)
	}
}

func BenchmarkOnActivate(b *testing.B) {
	cfg, _ := ForTRHD(1000)
	m := MustNew(cfg, nil)
	rows := cfg.Geometry.RowsPerBank
	for i := 0; i < b.N; i++ {
		m.OnActivate(i&31, i*7919%rows, 0)
	}
}
