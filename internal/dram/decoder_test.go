package dram

import (
	"strings"
	"testing"

	"mirza/internal/stats"
)

// refDecomposeWith is the div/mod decoder the shift/mask DecomposeWith
// replaced, kept as the reference it must match bit for bit.
func refDecomposeWith(g Geometry, m AddressMapping, phys uint64) Address {
	group := g.MOPLines
	switch m {
	case LineInterleaved:
		group = 1
	case RowInterleaved:
		group = g.LinesPerRow()
	}
	line := phys / uint64(g.LineBytes)

	colLow := int(line % uint64(group))
	line /= uint64(group)

	sc := int(line % uint64(g.SubChannels))
	line /= uint64(g.SubChannels)

	bank := int(line % uint64(g.BanksPerSubChannel))
	line /= uint64(g.BanksPerSubChannel)

	groups := g.LinesPerRow() / group
	colHigh := int(line % uint64(groups))
	line /= uint64(groups)

	row := int(line % uint64(g.RowsPerBank))
	return Address{
		SubChannel: sc,
		Bank:       bank,
		Row:        row,
		Col:        colHigh*group + colLow,
	}
}

// refComposeWith is the div/mod inverse of refDecomposeWith.
func refComposeWith(g Geometry, m AddressMapping, a Address) uint64 {
	group := g.MOPLines
	switch m {
	case LineInterleaved:
		group = 1
	case RowInterleaved:
		group = g.LinesPerRow()
	}
	groups := g.LinesPerRow() / group
	colHigh := a.Col / group
	colLow := a.Col % group

	line := uint64(a.Row)
	line = line*uint64(groups) + uint64(colHigh)
	line = line*uint64(g.BanksPerSubChannel) + uint64(a.Bank)
	line = line*uint64(g.SubChannels) + uint64(a.SubChannel)
	line = line*uint64(group) + uint64(colLow)
	return line * uint64(g.LineBytes)
}

// decoderGeometries are the geometries the simulator runs: the Table III
// default, the single-sub-channel 128-bank geometry of the mem
// regression tests, and the 128-bank-per-sub-channel wide geometry of the
// mem differential test.
func decoderGeometries() map[string]Geometry {
	regress := Geometry{
		SubChannels:        1,
		BanksPerSubChannel: 128,
		RowsPerBank:        8192,
		RowBytes:           4096,
		LineBytes:          64,
		MOPLines:           4,
		SubarrayRows:       1024,
		RowsPerREF:         16,
	}
	wide := Default()
	wide.BanksPerSubChannel = 128
	return map[string]Geometry{"default": Default(), "regress": regress, "wide": wide}
}

// TestDecoderMatchesDivModReference drives the shift/mask decoder and its
// inverse against the div/mod reference on random addresses — in range,
// beyond the capacity (the row wraps) and unaligned (the line offset is
// dropped) — and on random non-negative locations, including columns,
// banks and sub-channels past their field widths.
func TestDecoderMatchesDivModReference(t *testing.T) {
	rng := stats.NewRNG(2026)
	for name, g := range decoderGeometries() {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range []AddressMapping{MOP4Mapping, LineInterleaved, RowInterleaved} {
			for i := 0; i < 20000; i++ {
				phys := rng.Uint64()
				if i%2 == 0 {
					phys %= g.CapacityBytes()
				}
				got, want := g.DecomposeWith(m, phys), refDecomposeWith(g, m, phys)
				if got != want {
					t.Fatalf("%s/%v: DecomposeWith(%#x) = %+v, reference %+v", name, m, phys, got, want)
				}
				if m == MOP4Mapping && g.Decompose(phys) != want {
					t.Fatalf("%s: Decompose(%#x) = %+v, reference %+v", name, phys, g.Decompose(phys), want)
				}
				a := Address{
					SubChannel: rng.Intn(2 * g.SubChannels),
					Bank:       rng.Intn(2 * g.BanksPerSubChannel),
					Row:        rng.Intn(g.RowsPerBank),
					Col:        rng.Intn(2 * g.LinesPerRow()),
				}
				if got, want := g.ComposeWith(m, a), refComposeWith(g, m, a); got != want {
					t.Fatalf("%s/%v: ComposeWith(%+v) = %#x, reference %#x", name, m, a, got, want)
				}
				if m == MOP4Mapping && g.Compose(a) != refComposeWith(g, m, a) {
					t.Fatalf("%s: Compose(%+v) = %#x, reference %#x", name, a, g.Compose(a), refComposeWith(g, m, a))
				}
			}
		}
	}
}

// TestGeometryValidateRequiresPowersOfTwo pins the decoder's contract:
// each field an address is split along must be a power of two.
func TestGeometryValidateRequiresPowersOfTwo(t *testing.T) {
	mutate := func(f func(*Geometry)) Geometry {
		g := Default()
		f(&g)
		return g
	}
	cases := []struct {
		name    string
		geom    Geometry
		wantErr string // "" = must validate
	}{
		{"default", Default(), ""},
		{"line-bytes", mutate(func(g *Geometry) { g.LineBytes = 48 }), "LineBytes"},
		{"row-bytes", mutate(func(g *Geometry) { g.RowBytes = 3072 }), "RowBytes"},
		{"mop-lines", mutate(func(g *Geometry) { g.MOPLines = 3 }), "MOPLines"},
		{"sub-channels", mutate(func(g *Geometry) { g.SubChannels = 3 }), "SubChannels"},
		{"banks", mutate(func(g *Geometry) { g.BanksPerSubChannel = 24 }), "BanksPerSubChannel"},
		{"rows-per-bank", mutate(func(g *Geometry) { g.RowsPerBank = 96 * 1024 }), "RowsPerBank"},
		{"subarray-rows", mutate(func(g *Geometry) { g.SubarrayRows = 768 }), "SubarrayRows"},
		{"zero-banks", mutate(func(g *Geometry) { g.BanksPerSubChannel = 0 }), "BanksPerSubChannel"},
		{"negative-rows", mutate(func(g *Geometry) { g.RowsPerBank = -1024 }), "RowsPerBank"},
		{"zero-rows-per-ref", mutate(func(g *Geometry) { g.RowsPerREF = 0 }), "rows per REF"},
		{"row-below-line", mutate(func(g *Geometry) { g.RowBytes = 32 }), "line size"},
		{"bank-below-subarray", mutate(func(g *Geometry) { g.RowsPerBank = 512 }), "subarray rows"},
		{"ref-not-dividing", mutate(func(g *Geometry) { g.RowsPerREF = 24 }), "rows per REF"},
		{"mop-above-row", mutate(func(g *Geometry) { g.MOPLines = 128 }), "MOP group"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.geom.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

var decodeSink Address

func BenchmarkDecompose(b *testing.B) {
	g := Default()
	for i := 0; i < b.N; i++ {
		decodeSink = g.Decompose(uint64(i) * 0x9e3779b97f4a7c15)
	}
}
