package tenant

import (
	"fmt"

	"mirza/internal/attack"
	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
	"mirza/internal/vmap"
)

// rowGroupBytes is the physical granularity that carries one DRAM row
// index across all banks under the MOP4 layout: row r of every bank holds
// bytes [r*256KB, (r+1)*256KB).
const rowGroupBytes = 256 * 1024

// rowsPerSuper is how many consecutive row indices one vmap superblock
// covers.
const rowsPerSuper = vmap.SuperBytes / rowGroupBytes

// FillLabel is the owner label of background-VM memory, FreeLabel of
// unallocated memory.
const (
	FillLabel = "other-vm"
	FreeLabel = "free"
)

// Layout is the physical placement of a scenario on a loaded host: every
// tenant's footprint first-touch-allocated in spec order, then background
// VMs (the fill tenant) up to the requested occupancy — the steady state
// of a long-running multi-VM machine, where the attacker's allocation has
// real neighbours.
type Layout struct {
	Spec     *Spec
	Mapper   *vmap.Mapper
	FillASID int

	// AttackedBlock is the attacker-owned superblock the security run
	// hammers: the interior block whose physical neighbours are most
	// interesting (victim-owned first, then background, then free).
	AttackedBlock uint64
}

// BuildLayout places the scenario into a physical memory of
// capacityBytes filled to fillFrac occupancy. The spec must contain an
// attacker.
func BuildLayout(s *Spec, capacityBytes uint64, fillFrac float64) (*Layout, error) {
	ai := s.Attacker()
	if ai < 0 {
		return nil, fmt.Errorf("tenant: spec %q has no attacker", s)
	}
	l := &Layout{
		Spec:     s,
		Mapper:   vmap.NewMapper(capacityBytes),
		FillASID: len(s.Tenants),
	}
	for ti, t := range s.Tenants {
		fp := uint64(hammerFootprint)
		if !t.IsAttacker() {
			spec, err := trace.Lookup(t.Workload)
			if err != nil {
				return nil, err
			}
			mb := spec.FootprintMB
			if mb <= 0 {
				mb = 256 // trace.NewSynthetic's default
			}
			fp = uint64(mb) << 20
		}
		for off := uint64(0); off < fp; off += vmap.SuperBytes {
			l.Mapper.Translate(ti, off)
		}
	}
	totalBlocks := capacityBytes / vmap.SuperBytes
	target := uint64(float64(totalBlocks) * fillFrac)
	for v := uint64(0); uint64(l.Mapper.MappedBlocks()) < target && v < totalBlocks; v++ {
		l.Mapper.Translate(l.FillASID, v*vmap.SuperBytes)
	}

	l.AttackedBlock = l.pickAttackedBlock(ai, totalBlocks)
	return l, nil
}

// pickAttackedBlock scans the attacker's interior blocks for the one with
// the most valuable physical neighbours; deterministic given the spec.
func (l *Layout) pickAttackedBlock(attacker int, totalBlocks uint64) uint64 {
	blocks := l.Mapper.BlocksOf(attacker)
	best, bestScore := blocks[0], -1
	for _, b := range blocks {
		if b == 0 || b == totalBlocks-1 {
			continue // edge of physical memory: one neighbour missing
		}
		score := 0
		for _, nb := range []uint64{b - 1, b + 1} {
			switch owner, ok := l.Mapper.OwnerOf(nb * vmap.SuperBytes); {
			case ok && owner != attacker && owner != l.FillASID:
				score += 4 // a named victim VM next door
			case ok && owner == l.FillASID:
				score += 2 // a background VM
			case !ok:
				score++ // free (allocatable to a future victim)
			}
		}
		if score > bestScore {
			best, bestScore = b, score
		}
	}
	return best
}

// Neighbours returns the owner labels of the superblocks physically
// adjacent to the attacked block — the tenants the edge attack reaches.
func (l *Layout) Neighbours() (left, right string) {
	return l.OwnerLabel(int(l.AttackedBlock)*rowsPerSuper - 1),
		l.OwnerLabel(int(l.AttackedBlock+1) * rowsPerSuper)
}

// OwnerLabel names the tenant owning the given DRAM row index.
func (l *Layout) OwnerLabel(row int) string {
	asid, ok := l.Mapper.OwnerOf(uint64(row) * rowGroupBytes)
	switch {
	case !ok:
		return FreeLabel
	case asid == l.FillASID:
		return FillLabel
	default:
		return l.Spec.Tenants[asid].Name
	}
}

// SecurityConfig parameterizes a per-policy inter-VM security run.
type SecurityConfig struct {
	Geometry dram.Geometry
	Timing   dram.Timing
	Mapping  dram.R2SAMapping
	Bank     int
	TRHD     int // per-row double-sided flip threshold
	Windows  int // refresh windows to run
	RFMEvery int
	// NewMitigator builds the defense under test (already fault-wrapped
	// if the caller injects faults).
	NewMitigator func(sink track.Sink) track.Mitigator
}

// SecurityResult is one attack run with per-owner flip attribution.
type SecurityResult struct {
	Pattern string
	Sim     attack.BankSimResult
	// FlipsByOwner counts flip episodes by the label of the tenant
	// owning the flipped victim row.
	FlipsByOwner map[string]int
	// CrossFlips are flips in memory the attacker does not own — escapes
	// across the VM boundary (victim VMs, background VMs, or free memory
	// a future VM would inherit). SelfFlips landed in the attacker's own
	// allocation.
	CrossFlips int
	SelfFlips  int
}

// RunSecurity hammers the attacked block's rows with the spec's attack
// kind against the given mitigation and attributes every flip episode to
// the owner of the flipped row.
func (l *Layout) RunSecurity(cfg SecurityConfig) (*SecurityResult, error) {
	ai := l.Spec.Attacker()
	if ai < 0 {
		return nil, fmt.Errorf("tenant: layout has no attacker")
	}
	kind := l.Spec.Tenants[ai].Attack

	// The attacked block's rows in subarray 0: physical indices
	// [block*rowsPerSuper/128, +16) — contiguous, with the outer
	// neighbours owned by the adjacent superblocks' tenants.
	g := cfg.Geometry
	loIdx := int(l.AttackedBlock) * rowsPerSuper / g.Subarrays()
	hiIdx := loIdx + rowsPerSuper/g.Subarrays() - 1
	var pattern *attack.Rotation
	switch kind {
	case AttackDouble:
		pattern = attack.NewRotation("intervm-double",
			g.RowAt(cfg.Mapping, 0, loIdx), g.RowAt(cfg.Mapping, 0, loIdx+2))
	default: // AttackEdge
		pattern = attack.NewRotation("intervm-edge",
			g.RowAt(cfg.Mapping, 0, loIdx), g.RowAt(cfg.Mapping, 0, hiIdx))
	}

	sim := attack.NewBankSim(attack.BankSimConfig{
		Geometry:     g,
		Timing:       cfg.Timing,
		Mapping:      cfg.Mapping,
		Bank:         cfg.Bank,
		NewMitigator: cfg.NewMitigator,
		RFMEvery:     cfg.RFMEvery,
		RowThreshold: func(int) int { return cfg.TRHD },
	})
	res := &SecurityResult{
		Pattern:      pattern.Name(),
		FlipsByOwner: make(map[string]int),
	}
	attackerName := l.Spec.Tenants[ai].Name
	sim.Disturbance().SetFlipObserver(func(row int) {
		label := l.OwnerLabel(row)
		res.FlipsByOwner[label]++
		if label == attackerName {
			res.SelfFlips++
		} else {
			res.CrossFlips++
		}
	})
	windows := cfg.Windows
	if windows <= 0 {
		windows = 2
	}
	res.Sim = sim.RunWindows(pattern, windows)
	return res, nil
}
