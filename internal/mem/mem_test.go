package mem

import (
	"testing"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/sim"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

func newTestChannel(t *testing.T, cfg Config) (*sim.Kernel, *Channel) {
	t.Helper()
	k := &sim.Kernel{}
	ch, err := NewChannel(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, ch
}

// submitLine submits a read for (sub, bank, row, col) and returns a pointer
// to its completion time (zero until done).
func submitLine(ch *Channel, sub, bank, row, col int, done *dram.Time) {
	g := ch.Geometry()
	addr := g.Compose(dram.Address{SubChannel: sub, Bank: bank, Row: row, Col: col})
	ch.Submit(&Request{Addr: addr, Done: func(at dram.Time) { *done = at }})
}

func TestReadCompletesWithExpectedLatency(t *testing.T) {
	k, ch := newTestChannel(t, Config{})
	var done dram.Time
	submitLine(ch, 0, 0, 100, 0, &done)
	k.RunUntil(dram.Microsecond)
	tm := dram.DDR5()
	want := tm.TRCD + tm.TCL + tm.TBUS // ACT at t=0, data after tRCD+tCL+tBUS
	if done != want {
		t.Errorf("read done at %v, want %v", done, want)
	}
}

func TestRowHitsShareOneActivation(t *testing.T) {
	k, ch := newTestChannel(t, Config{})
	var d1, d2, d3 dram.Time
	submitLine(ch, 0, 0, 100, 0, &d1)
	submitLine(ch, 0, 0, 100, 1, &d2)
	submitLine(ch, 0, 0, 100, 2, &d3)
	k.RunUntil(dram.Microsecond)
	if d1 == 0 || d2 == 0 || d3 == 0 {
		t.Fatal("requests not completed")
	}
	st := ch.Stats()
	if st.ACTs != 1 {
		t.Errorf("ACTs = %d, want 1 (row hits)", st.ACTs)
	}
	if st.Reads != 3 {
		t.Errorf("reads = %d", st.Reads)
	}
	// Back-to-back data transfers: one tBUS apart.
	tbus := dram.DDR5().TBUS
	if d2-d1 != tbus || d3-d2 != tbus {
		t.Errorf("data spacing %v / %v, want %v", d2-d1, d3-d2, tbus)
	}
}

func TestRowConflictPaysPrechargeAndTRC(t *testing.T) {
	k, ch := newTestChannel(t, Config{})
	var d1, d2 dram.Time
	submitLine(ch, 0, 0, 100, 0, &d1)
	submitLine(ch, 0, 0, 200, 0, &d2)
	k.RunUntil(10 * dram.Microsecond)
	tm := dram.DDR5()
	// Second ACT cannot happen before tRC after the first.
	gap := d2 - d1
	if gap < tm.TRC-tm.TBUS {
		t.Errorf("conflict gap %v too small (tRC=%v)", gap, tm.TRC)
	}
	if ch.Stats().ACTs != 2 {
		t.Errorf("ACTs = %d, want 2", ch.Stats().ACTs)
	}
}

func TestSoftClosePageClosesAfterTRAS(t *testing.T) {
	k, ch := newTestChannel(t, Config{})
	var d1 dram.Time
	submitLine(ch, 0, 0, 100, 0, &d1)
	k.RunUntil(dram.Microsecond)
	// After tRAS with no pending requests the row is precharged; a new
	// request to the same row needs a fresh ACT.
	var d2 dram.Time
	submitLine(ch, 0, 0, 100, 1, &d2)
	k.RunUntil(2 * dram.Microsecond)
	if ch.Stats().ACTs != 2 {
		t.Errorf("ACTs = %d, want 2 (row was soft-closed)", ch.Stats().ACTs)
	}
}

func TestREFCadenceAndDemandRows(t *testing.T) {
	k, ch := newTestChannel(t, Config{})
	horizon := 10 * dram.DDR5().TREFI
	k.RunUntil(horizon + dram.Microsecond)
	st := ch.Stats()
	// Both sub-channels: 10 REFs each.
	if st.REFs != 20 {
		t.Errorf("REFs = %d, want 20", st.REFs)
	}
	g := ch.Geometry()
	want := int64(20 * g.RowsPerREF * g.BanksPerSubChannel)
	if st.DemandRefreshRows != want {
		t.Errorf("demand rows = %d, want %d", st.DemandRefreshRows, want)
	}
}

func TestProactiveRFMEveryBAT(t *testing.T) {
	k, ch := newTestChannel(t, Config{RFMBAT: 4})
	// 12 conflicting rows to one bank: 12 ACTs => 3 RFMs.
	var dones [12]dram.Time
	for i := 0; i < 12; i++ {
		submitLine(ch, 0, 0, 100+i, 0, &dones[i])
	}
	k.RunUntil(20 * dram.Microsecond)
	st := ch.Stats()
	if st.ACTs != 12 {
		t.Fatalf("ACTs = %d", st.ACTs)
	}
	if st.RFMs != 3 {
		t.Errorf("RFMs = %d, want 3 (BAT=4)", st.RFMs)
	}
}

func TestMINTRFMMitigates(t *testing.T) {
	g := dram.Default()
	k, ch := newTestChannel(t, Config{
		RFMBAT: 4,
		NewMitigator: func(sub int, sink track.Sink) track.Mitigator {
			m, err := policies.NewMINT(policies.MINTConfig{
				Geometry: g, Mapping: dram.StridedR2SA,
				Window: 4, MitigateOnRFM: true, Seed: uint64(sub),
			}, sink)
			if err != nil {
				panic(err)
			}
			return m
		},
	})
	var dones [16]dram.Time
	for i := 0; i < 16; i++ {
		submitLine(ch, 0, 0, 100+i, 0, &dones[i])
	}
	k.RunUntil(20 * dram.Microsecond)
	st := ch.Stats()
	if st.RFMs != 4 {
		t.Fatalf("RFMs = %d, want 4", st.RFMs)
	}
	if st.Mitigations == 0 || st.VictimRows != st.Mitigations*track.MitigationVictims {
		t.Errorf("mitigations=%d victims=%d", st.Mitigations, st.VictimRows)
	}
}

// alwaysAlert is a test mitigator that requests one ALERT after the n-th
// activation.
type alwaysAlert struct {
	track.Nop
	after    int
	acts     int
	want     bool
	serviced int
}

func (a *alwaysAlert) OnActivate(bank, row int, now dram.Time) {
	a.acts++
	if a.acts >= a.after {
		a.want = true
	}
}
func (a *alwaysAlert) WantsALERT() bool { return a.want }
func (a *alwaysAlert) ServiceALERT(now dram.Time) {
	a.want = false
	a.serviced++
}

func TestABOProtocolTiming(t *testing.T) {
	aa := &alwaysAlert{after: 2}
	k, ch := newTestChannel(t, Config{
		NewMitigator: func(sub int, sink track.Sink) track.Mitigator {
			if sub == 0 {
				return aa
			}
			return track.NewNop()
		},
	})
	var d1, d2, d3 dram.Time
	submitLine(ch, 0, 0, 100, 0, &d1)
	submitLine(ch, 0, 1, 100, 0, &d2)
	k.RunUntil(dram.Microsecond)
	if aa.serviced != 1 {
		t.Fatalf("ALERT serviced %d times, want 1", aa.serviced)
	}
	st := ch.SubChannel(0).Stats()
	if st.Alerts != 1 {
		t.Fatalf("alerts = %d", st.Alerts)
	}
	if st.AlertStall != dram.DDR5().ABOStall {
		t.Errorf("alert stall = %v", st.AlertStall)
	}
	// A request issued during the stall must wait for the ALERT to end.
	start := k.Now()
	submitLine(ch, 0, 2, 100, 0, &d3)
	k.RunUntil(start + 2*dram.Microsecond)
	if d3 == 0 {
		t.Fatal("post-ALERT request never completed")
	}

	// The epilogue rule: a second ALERT requires an ACT in between. The
	// mitigator re-raised want on the post-ALERT activation (acts
	// continued), so a second service must have happened after d3's ACT.
	if aa.serviced < 2 {
		t.Errorf("second ALERT (after epilogue ACT) not serviced: %d", aa.serviced)
	}
}

func TestMIRZAUnderChannelTraffic(t *testing.T) {
	cfg, _ := core.ForTRHD(1000)
	cfg.FTH = 30 // tiny FTH so the test triggers ALERTs quickly
	k, ch := newTestChannel(t, Config{
		NewMitigator: func(sub int, sink track.Sink) track.Mitigator {
			c := cfg
			c.Seed = uint64(sub)
			return core.MustNew(c, sink)
		},
	})
	// Hammer conflicting rows in one bank of sub-channel 0.
	done := make([]dram.Time, 4000)
	for i := range done {
		submitLine(ch, 0, 0, i%64, 0, &done[i])
	}
	k.RunUntil(dram.Millisecond)
	st := ch.SubChannel(0).Stats()
	if st.Alerts == 0 {
		t.Fatal("no ALERTs under hammering with tiny FTH")
	}
	if st.Mitigations == 0 {
		t.Fatal("no mitigations")
	}
	for i, d := range done {
		if d == 0 {
			t.Fatalf("request %d never completed", i)
		}
	}
}

func TestPRACTimingSlowdown(t *testing.T) {
	// A dependent chain of row conflicts (each request issued only after
	// the previous completes) exposes the PRAC timing inflation: the
	// row-cycle path is bounded by tRC for baseline DDR5 (46ns) but by
	// precharge + tRP for PRAC (26ns + 36ns = 62ns), since PRAC's counter
	// update inflates tRP from 14ns to 36ns (Table I).
	run := func(tm dram.Timing) dram.Time {
		k, ch := newTestChannel(t, Config{Timing: tm})
		const n = 100
		var issue func(i int)
		var last dram.Time
		issue = func(i int) {
			if i == n {
				return
			}
			g := ch.Geometry()
			addr := g.Compose(dram.Address{Bank: 0, Row: 100 + i%2, Col: 0})
			ch.Submit(&Request{Addr: addr, Done: func(at dram.Time) {
				last = at
				issue(i + 1)
			}})
		}
		issue(0)
		k.RunUntil(dram.Millisecond)
		return last
	}
	base := run(dram.DDR5())
	prac := run(dram.PRAC())
	ratio := float64(prac) / float64(base)
	if ratio < 1.25 || ratio > 1.42 {
		t.Errorf("PRAC dependent-conflict slowdown = %.3f, want ~1.35 (62ns vs 46ns cycle)", ratio)
	}
}

func TestConfigValidation(t *testing.T) {
	k := &sim.Kernel{}
	bad := Config{Geometry: dram.Geometry{SubChannels: 1, BanksPerSubChannel: 2, RowsPerBank: 100, RowBytes: 4096, LineBytes: 64, MOPLines: 4, SubarrayRows: 7, RowsPerREF: 3}}
	if _, err := NewChannel(k, bad); err == nil {
		t.Error("invalid geometry must be rejected")
	}
}
