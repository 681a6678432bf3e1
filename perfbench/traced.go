package main

import (
	"fmt"
	"time"

	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
	"mirza/internal/vmap"
)

// A traced run never puts a timer inside a layer call: timing every
// Generator.Next or OnActivate would mostly measure the timer. Instead the
// wrappers below only record each layer's inputs, and after every segment
// of simulated time the tracer times each layer alone on those inputs,
// through the layer's public functions:
//
//   - trace: same-seed generators regenerate the recorded ops (and must
//     reproduce them exactly);
//   - vmap and dram: a mapper prefaulted the same way translates the
//     recorded ops, then Geometry.Decompose decodes the results;
//   - core/track: fresh same-seed trackers replay the recorded
//     OnActivate/ServiceALERT/OnREF/OnRFM sequence and must end with the
//     live trackers' statistics.

type footprinter interface{ FootprintBytes() uint64 }

// recGen records every op its generator produces. It forwards
// FootprintBytes: replay.NewRunner and cpu.NewSystem prefault only
// generators that expose it, so hiding it would change every result.
type recGen struct {
	trace.Generator
	fp  footprinter
	ops *[]trace.Op
}

func (g *recGen) Next(op *trace.Op) {
	g.Generator.Next(op)
	*g.ops = append(*g.ops, *op)
}

func (g *recGen) FootprintBytes() uint64 { return g.fp.FootprintBytes() }

const (
	evACT = iota
	evALERT
	evREF
	evRFM
)

// event is one state-changing tracker call.
type event struct {
	at   dram.Time
	arg  int32 // row for ACT, REF index for REF
	bank int16
	kind uint8
}

// recMit records every state-changing call into its tracker. Name and
// WantsALERT (a pure query) pass through the embedded interface.
type recMit struct {
	track.Mitigator
	log *[]event
}

func (m *recMit) OnActivate(bank, row int, now dram.Time) {
	m.Mitigator.OnActivate(bank, row, now)
	*m.log = append(*m.log, event{at: now, arg: int32(row), bank: int16(bank), kind: evACT})
}

func (m *recMit) ServiceALERT(now dram.Time) {
	m.Mitigator.ServiceALERT(now)
	*m.log = append(*m.log, event{at: now, kind: evALERT})
}

func (m *recMit) OnREF(refIndex int, now dram.Time) {
	m.Mitigator.OnREF(refIndex, now)
	*m.log = append(*m.log, event{at: now, arg: int32(refIndex), kind: evREF})
}

func (m *recMit) OnRFM(bank int, now dram.Time) {
	m.Mitigator.OnRFM(bank, now)
	*m.log = append(*m.log, event{at: now, bank: int16(bank), kind: evRFM})
}

// layerTimes accumulates the isolated time and work of each layer.
type layerTimes struct {
	trace, vmap, dram, tracker     time.Duration
	ops, translations, trackerActs int64
}

// tracer records one plan's layer inputs and replays them layer by layer.
type tracer struct {
	p    plan
	geom dram.Geometry

	ops    [][]trace.Op // per core, the current segment
	events [][]event    // per sub-channel, the current segment

	regen  []trace.Generator
	mapper *vmap.Mapper // replay plans only: the timing mapper lives in cpu
	iso    []track.Mitigator

	buf  []trace.Op
	phys []uint64

	wants, services int64 // replay: WantsALERT after ACT vs recorded services
	decodeSum       int
	t               *layerTimes
	findings        []string
}

func newTracer(p plan, seed uint64, t *layerTimes) (*tracer, error) {
	spec, err := trace.Lookup(p.trace)
	if err != nil {
		return nil, err
	}
	genSeed := seed
	if !p.timing {
		genSeed += replayGenSeedOff
	}
	regen, err := trace.PerCore(spec, cores, genSeed)
	if err != nil {
		return nil, err
	}
	iso, err := newTrackers(p.policy, seed)
	if err != nil {
		return nil, err
	}
	g := dram.Default()
	tr := &tracer{
		p: p, geom: g, regen: regen, iso: iso, t: t,
		ops:    make([][]trace.Op, cores),
		events: make([][]event, g.SubChannels),
	}
	if !p.timing {
		// Prefault exactly as replay.NewRunner does: cores in order, one
		// address space per core.
		tr.mapper = vmap.NewMapper(g.CapacityBytes())
		for c, gen := range regen {
			fp, ok := gen.(footprinter)
			if !ok {
				return nil, fmt.Errorf("generator %s has no footprint", gen.Name())
			}
			for off := uint64(0); off < fp.FootprintBytes(); off += vmap.SuperBytes {
				tr.mapper.Translate(c, off)
			}
		}
	}
	return tr, nil
}

func (tr *tracer) wrapGens(gens []trace.Generator) ([]trace.Generator, error) {
	out := make([]trace.Generator, len(gens))
	for c, g := range gens {
		fp, ok := g.(footprinter)
		if !ok {
			return nil, fmt.Errorf("generator %s has no footprint to forward", g.Name())
		}
		out[c] = &recGen{Generator: g, fp: fp, ops: &tr.ops[c]}
	}
	return out, nil
}

func (tr *tracer) wrapMit(sub int, m track.Mitigator) track.Mitigator {
	return &recMit{Mitigator: m, log: &tr.events[sub]}
}

func (tr *tracer) wrapMits(mits []track.Mitigator) []track.Mitigator {
	out := make([]track.Mitigator, len(mits))
	for i, m := range mits {
		out[i] = tr.wrapMit(i, m)
	}
	return out
}

func (tr *tracer) finding(format string, args ...any) {
	tr.findings = append(tr.findings, tr.p.String()+": "+fmt.Sprintf(format, args...))
}

// flush times every layer alone on the segment just recorded, then clears
// the recording.
func (tr *tracer) flush() {
	for c, ops := range tr.ops {
		tr.replayTrace(c, ops)
		if tr.mapper != nil {
			tr.replayVmapDram(c, ops)
		}
		tr.ops[c] = ops[:0]
	}
	for sub, evs := range tr.events {
		tr.replayTracker(sub, evs)
		tr.events[sub] = evs[:0]
	}
}

func (tr *tracer) replayTrace(c int, ops []trace.Op) {
	if cap(tr.buf) < len(ops) {
		tr.buf = make([]trace.Op, len(ops))
	}
	buf := tr.buf[:len(ops)]
	gen := tr.regen[c]
	start := time.Now()
	for i := range buf {
		gen.Next(&buf[i])
	}
	tr.t.trace += time.Since(start)
	tr.t.ops += int64(len(buf))
	for i := range buf {
		if buf[i] != ops[i] {
			tr.finding("core %d: regenerated op %+v differs from recorded %+v", c, buf[i], ops[i])
			return
		}
	}
}

func (tr *tracer) replayVmapDram(c int, ops []trace.Op) {
	if cap(tr.phys) < len(ops) {
		tr.phys = make([]uint64, len(ops))
	}
	phys := tr.phys[:len(ops)]
	m := tr.mapper
	start := time.Now()
	for i := range ops {
		phys[i] = m.Translate(c, ops[i].Line*trace.LineBytes)
	}
	tr.t.vmap += time.Since(start)
	g := tr.geom
	sum := 0
	start = time.Now()
	for _, p := range phys {
		a := g.Decompose(p)
		sum += a.SubChannel + a.Bank + a.Row + a.Col
	}
	tr.t.dram += time.Since(start)
	tr.decodeSum += sum // keeps the decode loop live
	tr.t.translations += int64(len(ops))
}

func (tr *tracer) replayTracker(sub int, evs []event) {
	m := tr.iso[sub]
	poll := !tr.p.timing // the replayer polls WantsALERT after every ACT
	var wants, services, acts int64
	start := time.Now()
	for i := range evs {
		e := &evs[i]
		switch e.kind {
		case evACT:
			m.OnActivate(int(e.bank), int(e.arg), e.at)
			acts++
			if poll && m.WantsALERT() {
				wants++
			}
		case evALERT:
			m.ServiceALERT(e.at)
			services++
		case evREF:
			m.OnREF(int(e.arg), e.at)
		case evRFM:
			m.OnRFM(int(e.bank), e.at)
		}
	}
	tr.t.tracker += time.Since(start)
	tr.t.trackerActs += acts
	if poll {
		tr.wants += wants
		tr.services += services
	}
}

// finish compares the isolated trackers with the live ones. Trackers are
// pure functions of their input stream, so any difference is a finding.
func (tr *tracer) finish(live []track.Mitigator, counts map[string]float64) {
	if tr.mapper != nil {
		counts["vmap.blocks_mapped"] += float64(tr.mapper.MappedBlocks())
	}
	for sub := range live {
		if a, b := trackerStats(live[sub]), trackerStats(tr.iso[sub]); a != b {
			tr.finding("sub%d: isolated tracker ended with %s, live run with %s", sub, b, a)
		}
	}
	if tr.wants != tr.services {
		tr.finding("isolated trackers wanted %d ALERTs, the live run serviced %d", tr.wants, tr.services)
	}
}
