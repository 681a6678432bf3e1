package mem

import (
	"fmt"
	"slices"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/sim"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

// checkWindow rebuilds the scheduling-window summary from scratch — the
// first WindowDepth queue entries against the open rows — and compares
// it field by field with the incrementally maintained s.win. It returns
// the first mismatch, or nil.
func checkWindow(s *SubChannel) error {
	w := &s.win
	window := s.queue[:min(len(s.queue), s.cfg.WindowDepth)]
	type entry struct {
		seq int64
		row int32
	}
	want := make([][]entry, len(w.banks))
	for _, r := range window {
		want[r.addr.Bank] = append(want[r.addr.Bank], entry{r.enqueue, int32(r.addr.Row)})
	}
	listed := 0
	for b, bk := range w.banks {
		var got []entry
		tail := int32(-1)
		for j := bk.head; j >= 0; j = w.pool[j].next {
			if len(got) > len(w.pool) {
				return fmt.Errorf("bank %d: entry list cycles", b)
			}
			sl := w.pool[j]
			if sl.req == nil || sl.req.enqueue != sl.seq || int32(sl.req.addr.Row) != sl.row {
				return fmt.Errorf("bank %d: slot %d does not mirror its request", b, j)
			}
			got = append(got, entry{sl.seq, sl.row})
			tail = j
		}
		if !slices.Equal(got, want[b]) {
			return fmt.Errorf("bank %d: entries %v, want %v", b, got, want[b])
		}
		if bk.tail != tail {
			return fmt.Errorf("bank %d: tail slot %d, want %d", b, bk.tail, tail)
		}
		listed += len(got)
		open := s.openRow[b]
		oldest := int64(-1)
		for _, e := range want[b] {
			if e.row == open {
				oldest = e.seq
				break
			}
		}
		switch {
		case oldest < 0 && bk.hit >= 0:
			return fmt.Errorf("bank %d: hit slot %d, want none", b, bk.hit)
		case oldest >= 0 && (bk.hit < 0 || w.pool[bk.hit].seq != oldest || bk.hitSeq != oldest):
			return fmt.Errorf("bank %d: oldest hit slot %d seq %d, want seq %d", b, bk.hit, bk.hitSeq, oldest)
		}
		if got, want := w.present.Test(b), len(want[b]) > 0; got != want {
			return fmt.Errorf("bank %d: present bit %v, want %v", b, got, want)
		}
		if got, want := w.hit.Test(b), oldest >= 0; got != want {
			return fmt.Errorf("bank %d: hit bit %v, want %v", b, got, want)
		}
	}
	free := 0
	for j := w.free; j >= 0; j = w.pool[j].next {
		if free++; free > len(w.pool) {
			return fmt.Errorf("free list cycles")
		}
		if w.pool[j].req != nil {
			return fmt.Errorf("free slot %d still holds a request", j)
		}
	}
	if listed != len(window) || listed+free != len(w.pool) {
		return fmt.Errorf("slots: %d listed + %d free, want %d window entries of %d slots",
			listed, free, len(window), len(w.pool))
	}
	return nil
}

// TestWindowSummaryInvariant runs the differential traffic and checks the
// incremental window summary against a from-scratch rebuild after every
// scheduling pass, so summary drift fails here directly rather than only
// when it later changes a command.
func TestWindowSummaryInvariant(t *testing.T) {
	geomWide := dram.Default()
	geomWide.BanksPerSubChannel = 128
	pracFactory := func(sub int, sink track.Sink) track.Mitigator {
		m, err := policies.NewPRAC(policies.PRACConfig{Geometry: dram.Default(), AlertThreshold: 24}, sink)
		if err != nil {
			panic(err)
		}
		return m
	}
	cases := []struct {
		name string
		cfg  Config
		gap  dram.Time
	}{
		{"default", Config{RFMBAT: 16, RowPressWeighting: true}, 15 * dram.Nanosecond},
		{"wide-geometry", Config{Geometry: geomWide, RFMBAT: 12}, 12 * dram.Nanosecond},
		{"small-window", Config{WindowDepth: 8, RFMBAT: 16}, 15 * dram.Nanosecond},
		{"prac-alert", Config{NewMitigator: pracFactory, Timing: dram.PRAC()}, 10 * dram.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			passes := 0
			var failed error
			InstallDebug(&DebugOptions{Pass: func(s *SubChannel) {
				passes++
				if failed == nil {
					if err := checkWindow(s); err != nil {
						failed = fmt.Errorf("sub %d, pass %d at %v: %w", s.id, passes, s.k.Now(), err)
					}
				}
			}})
			defer InstallDebug(nil)
			k := &sim.Kernel{}
			ch, err := NewChannel(k, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			newDiffFeeder(k, ch, 99, 3000, tc.gap)
			k.RunUntil(300 * dram.Microsecond)
			if failed != nil {
				t.Fatal(failed)
			}
			if passes == 0 || ch.Stats().Reads == 0 {
				t.Fatalf("no traffic scheduled: %d passes, %+v", passes, ch.Stats())
			}
		})
	}
}
