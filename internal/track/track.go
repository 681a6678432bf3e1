// Package track defines the in-DRAM Rowhammer mitigation interface shared by
// every tracker in this repository, the registry through which consumers
// resolve policies by name, the MINT sampler shared by MINT and MIRZA, and
// the unprotected Nop baseline. The policies themselves (MINT, PRAC+ABO,
// MoPAC, TRR, Mithril, Graphene, Loaded Dice, the oracle, and MIRZA from
// internal/core) each register from one file in internal/track/policies.
//
// A Mitigator models the per-sub-channel mitigation logic of a DRAM device:
// it observes every activation and refresh, may use proactive mitigation
// opportunities (REF or RFM), and may reactively request an ALERT-Back-Off.
// Both the full-system performance simulator (internal/mem) and the
// bank-level attack simulator (internal/attack) drive the same interface, so
// the code whose security is analyzed is the code whose performance is
// measured.
package track

import (
	"mirza/internal/dram"
	"mirza/internal/stats"
)

// Sink receives mitigation events. The performance simulator plugs in an
// energy-accounting sink; the attack simulator plugs in a sink that clears
// per-victim disturbance counters.
type Sink interface {
	// RowMitigated reports that aggressor row in bank was mitigated at
	// time now by refreshing the physically adjacent victim rows
	// (victims counts the rows refreshed, typically 4: +/-1 and +/-2).
	RowMitigated(bank, row, victims int, now dram.Time)
}

// NopSink discards mitigation events.
type NopSink struct{}

// RowMitigated implements Sink.
func (NopSink) RowMitigated(bank, row, victims int, now dram.Time) {}

// CountingSink tallies mitigation events; it satisfies Sink.
type CountingSink struct {
	Mitigations int64 // aggressor rows mitigated
	VictimRows  int64 // victim rows refreshed
}

// RowMitigated implements Sink.
func (s *CountingSink) RowMitigated(bank, row, victims int, now dram.Time) {
	s.Mitigations++
	s.VictimRows += int64(victims)
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(bank, row, victims int, now dram.Time)

// RowMitigated implements Sink.
func (f FuncSink) RowMitigated(bank, row, victims int, now dram.Time) {
	f(bank, row, victims, now)
}

// Mitigator is the in-DRAM mitigation logic for one sub-channel (all of its
// banks). Implementations must be deterministic given their seed.
type Mitigator interface {
	// Name identifies the design (for reports).
	Name() string

	// OnActivate observes an ACT to (bank, row) at time now. This is
	// called for every activation the device performs, including the
	// attacker's.
	OnActivate(bank, row int, now dram.Time)

	// WantsALERT reports whether the device is currently requesting an
	// ALERT-Back-Off. The memory controller polls this after each
	// activation and after servicing a previous ALERT.
	WantsALERT() bool

	// OnREF observes the refIndex-th REF command (0-based position in
	// the refresh walk; all banks refresh the same physical row range in
	// lockstep). Proactive designs may take a
	// mitigation opportunity here; designs with refresh-synchronized
	// state (PRAC counters, MIRZA's RCT) reset it here.
	OnREF(refIndex int, now dram.Time)

	// OnRFM grants bank a proactive mitigation opportunity (the memory
	// controller issued an RFM because the bank's activation counter
	// reached the Bank Activation Threshold).
	OnRFM(bank int, now dram.Time)

	// ServiceALERT is invoked when the ALERT's back-off RFM executes:
	// every bank with pending mitigation work mitigates one entry.
	ServiceALERT(now dram.Time)
}

// StateInjector is the fault-injection hook on a Mitigator: trackers that
// expose their SRAM state to the internal/fault harness implement it. One
// call models a single transient upset — it flips one pseudo-randomly
// chosen bit of internal tracker state (an RCT counter, a sampler window
// position, a per-row activation counter, ...), drawing every choice from
// rng so the injected-fault sequence is deterministic for a given seed.
// The returned string describes the flip for fault logs.
//
// Implementations must corrupt silently: no panic, no resynchronization —
// the point is to observe how the mitigation degrades.
type StateInjector interface {
	InjectStateFault(rng *stats.RNG) string
}

// MitigationVictims is the number of victim rows refreshed per aggressor
// mitigation (two on each side, per Section V.A of the paper).
const MitigationVictims = 4

// Stats are counters common to all trackers, embedded by implementations.
//
// Insertions and Evictions describe tracker-state turnover in whatever
// unit the policy maintains: table entries for TRR/Mithril, captured
// sampler selections for MINT, pending-ALERT rows for PRAC/MoPAC, queue
// entries for MIRZA. An eviction is an entry removed without being
// mitigated (capacity replacement or a demand refresh clearing it).
type Stats struct {
	ACTs         int64 // activations observed
	Mitigations  int64 // aggressor rows mitigated
	AlertsWanted int64 // distinct ALERT requests raised
	RFMs         int64 // RFM opportunities received
	Insertions   int64 // entries inserted into tracker state
	Evictions    int64 // entries removed without mitigation
}

// StatsSource is implemented by trackers that expose their common
// counters; telemetry flushing walks a Mitigator's Unwrap chain looking
// for it, so decorators (like the fault-injection wrapper) stay
// transparent.
type StatsSource interface {
	TrackStats() Stats
}

// Nop is the unprotected baseline: it observes traffic and does nothing.
type Nop struct {
	Stats Stats
}

var _ Mitigator = (*Nop)(nil)

// NewNop returns the no-mitigation baseline.
func NewNop() *Nop { return &Nop{} }

// Name implements Mitigator.
func (n *Nop) Name() string { return "Unprotected" }

// OnActivate implements Mitigator.
func (n *Nop) OnActivate(bank, row int, now dram.Time) { n.Stats.ACTs++ }

// WantsALERT implements Mitigator.
func (n *Nop) WantsALERT() bool { return false }

// OnREF implements Mitigator.
func (n *Nop) OnREF(refIndex int, now dram.Time) {}

// OnRFM implements Mitigator.
func (n *Nop) OnRFM(bank int, now dram.Time) { n.Stats.RFMs++ }

// ServiceALERT implements Mitigator.
func (n *Nop) ServiceALERT(now dram.Time) {}

// TrackStats implements StatsSource.
func (n *Nop) TrackStats() Stats { return n.Stats }
