package dram

import (
	"fmt"
	"math/bits"
)

// AddressMapping selects how physical addresses spread over the channel's
// banks and rows. The paper's baseline is Minimalist Open Page with 4 lines
// per row visit (MOP4, Table III); the alternatives exist for the ablation
// bench that justifies that choice.
type AddressMapping int

const (
	// MOP4Mapping is the default: 4 consecutive lines per row visit, then
	// stripe across sub-channels and banks (Kaseridis et al., MICRO'11).
	MOP4Mapping AddressMapping = iota
	// LineInterleaved stripes every single line across sub-channels and
	// banks: maximal bank parallelism, minimal row-buffer locality.
	LineInterleaved
	// RowInterleaved keeps a whole DRAM row's worth of lines consecutive
	// before switching banks: maximal locality, minimal parallelism (an
	// open-page policy's best friend and a bank conflict's worst enemy).
	RowInterleaved
)

// String implements fmt.Stringer.
func (m AddressMapping) String() string {
	switch m {
	case MOP4Mapping:
		return "mop4"
	case LineInterleaved:
		return "line-interleaved"
	case RowInterleaved:
		return "row-interleaved"
	default:
		return fmt.Sprintf("AddressMapping(%d)", int(m))
	}
}

// log2 returns the exponent of a power of two; Validate guarantees every
// geometry field it is applied to is one. The &63 is free and tells the
// compiler a shift by the result needs no out-of-range fixup.
func log2(v int) uint { return uint(bits.TrailingZeros(uint(v))) & 63 }

// group returns the lines one row visit covers under mapping m: the lines
// an address keeps in one row before moving to the next sub-channel or
// bank. The pointer receiver lets it inline into the decoders without
// copying the Geometry.
func (g *Geometry) group(m AddressMapping) int {
	switch m {
	case LineInterleaved:
		return 1
	case RowInterleaved:
		return g.RowBytes >> log2(g.LineBytes)
	}
	return g.MOPLines
}

// DecomposeWith maps a physical line-aligned byte address to its DRAM
// location under the chosen mapping. It is shift/mask only: Validate
// requires every field it splits along to be a power of two, so each
// field's mask is its size minus one.
//
// From the least significant end an address holds the line offset, the
// low column bits of one row visit, the sub-channel, the bank, the high
// column bits, and the row.
func (g Geometry) DecomposeWith(m AddressMapping, phys uint64) Address {
	group := g.group(m)
	groups := g.RowBytes >> log2(g.LineBytes) >> log2(group)
	line := phys >> log2(g.LineBytes)
	colLow := int(line) & (group - 1)
	line >>= log2(group)
	sc := int(line) & (g.SubChannels - 1)
	line >>= log2(g.SubChannels)
	bank := int(line) & (g.BanksPerSubChannel - 1)
	line >>= log2(g.BanksPerSubChannel)
	colHigh := int(line) & (groups - 1)
	line >>= log2(groups)
	return Address{
		SubChannel: sc,
		Bank:       bank,
		Row:        int(line) & (g.RowsPerBank - 1),
		Col:        colHigh<<log2(group) | colLow,
	}
}

// ComposeWith is the inverse of DecomposeWith.
func (g Geometry) ComposeWith(m AddressMapping, a Address) uint64 {
	group := g.group(m)
	groups := g.RowBytes >> log2(g.LineBytes) >> log2(group)
	line := uint64(a.Row)
	line = line<<log2(groups) + uint64(a.Col>>log2(group))
	line = line<<log2(g.BanksPerSubChannel) + uint64(a.Bank)
	line = line<<log2(g.SubChannels) + uint64(a.SubChannel)
	line = line<<log2(group) + uint64(a.Col&(group-1))
	return line << log2(g.LineBytes)
}
