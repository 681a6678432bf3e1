package track_test

// Behavioural tests of the baseline trackers registered by package
// policies, driven through their exported constructors.

import (
	"testing"

	"mirza/internal/dram"
	"mirza/internal/stats"
	"mirza/internal/track"
	"mirza/internal/track/policies"
)

// must unwraps a constructor result; a configuration error fails the test
// through the panic.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func TestMINTProactiveMitigatesOnRFM(t *testing.T) {
	sink := &track.CountingSink{}
	m := must(policies.NewMINT(policies.MINTConfig{
		Geometry:      dram.Default(),
		Window:        12,
		MitigateOnRFM: true,
		Seed:          3,
	}, sink))
	// Feed a window's worth of ACTs, then an RFM opportunity.
	for i := 0; i < 12; i++ {
		m.OnActivate(0, 1000+i, 0)
	}
	m.OnRFM(0, 0)
	if sink.Mitigations != 1 {
		t.Fatalf("mitigations = %d, want 1", sink.Mitigations)
	}
	if sink.VictimRows != int64(track.MitigationVictims) {
		t.Errorf("victims = %d, want %d", sink.VictimRows, track.MitigationVictims)
	}
	if m.WantsALERT() {
		t.Error("proactive MINT must never request ALERT")
	}
}

func TestMINTMitigateEveryREFs(t *testing.T) {
	sink := &track.CountingSink{}
	m := must(policies.NewMINT(policies.MINTConfig{
		Geometry:          dram.Default(),
		Window:            4,
		MitigateEveryREFs: 4,
		Seed:              5,
	}, sink))
	for ref := 0; ref < 16; ref++ {
		for i := 0; i < 8; i++ {
			m.OnActivate(0, i, 0)
		}
		m.OnREF(ref, 0)
	}
	// Mitigation opportunities at REF 0, 4, 8, 12 = 4 (REF 0 has a
	// captured row because 8 ACTs preceded it).
	if sink.Mitigations != 4 {
		t.Errorf("mitigations = %d, want 4", sink.Mitigations)
	}
}

func TestPRACCountsAndAlerts(t *testing.T) {
	sink := &track.CountingSink{}
	p := must(policies.NewPRAC(policies.PRACConfig{
		Geometry:       dram.Default(),
		Mapping:        dram.StridedR2SA,
		AlertThreshold: 100,
	}, sink))
	row := 5000
	for i := 0; i < 99; i++ {
		p.OnActivate(3, row, 0)
	}
	if p.WantsALERT() {
		t.Fatal("ALERT before threshold")
	}
	p.OnActivate(3, row, 0)
	if !p.WantsALERT() {
		t.Fatal("no ALERT at threshold")
	}
	p.ServiceALERT(0)
	if sink.Mitigations != 1 {
		t.Fatalf("mitigations = %d", sink.Mitigations)
	}
	if p.WantsALERT() {
		t.Error("ALERT should clear after service")
	}
	if p.MaxCounter(3) != 0 {
		t.Error("mitigated row's counter should reset")
	}
}

func TestPRACRefreshResetsCounters(t *testing.T) {
	g := dram.Default()
	p := must(policies.NewPRAC(policies.PRACConfig{Geometry: g, Mapping: dram.StridedR2SA, AlertThreshold: 1000}, nil))
	// Row at subarray 0, physical index 0 is refreshed by REF 0.
	row := g.RowAt(dram.StridedR2SA, 0, 0)
	for i := 0; i < 500; i++ {
		p.OnActivate(0, row, 0)
	}
	if p.MaxCounter(0) != 500 {
		t.Fatalf("counter = %d", p.MaxCounter(0))
	}
	p.OnREF(0, 0)
	if p.MaxCounter(0) != 0 {
		t.Errorf("counter after refresh = %d, want 0", p.MaxCounter(0))
	}
}

func TestPRACPendingClearedByRefresh(t *testing.T) {
	g := dram.Default()
	p := must(policies.NewPRAC(policies.PRACConfig{Geometry: g, Mapping: dram.StridedR2SA, AlertThreshold: 10}, nil))
	row := g.RowAt(dram.StridedR2SA, 0, 1)
	for i := 0; i < 10; i++ {
		p.OnActivate(0, row, 0)
	}
	if !p.WantsALERT() {
		t.Fatal("no alert")
	}
	p.OnREF(0, 0) // refreshes physical rows 0..15 of subarray 0, incl. the row
	if p.WantsALERT() {
		t.Error("refresh of the offending row should clear the pending ALERT")
	}
}

func TestATHForTRHD(t *testing.T) {
	if ath := policies.ATHForTRHD(1000); ath <= 0 || ath > 500 {
		t.Errorf("ATH(1000) = %d", ath)
	}
	if policies.ATHForTRHD(2) != 1 {
		t.Errorf("tiny threshold must clamp to 1, got %d", policies.ATHForTRHD(2))
	}
}

func TestMithrilTracksHeavyHitter(t *testing.T) {
	// One hot row among noise: the mitigation opportunity must pick it.
	rng := stats.NewRNG(9)
	hot := 4242
	var mitigated []int
	m2 := must(policies.NewMithril(policies.MithrilConfig{
		Geometry: dram.Default(), Mapping: dram.StridedR2SA, Entries: 16, MitigateEveryREFs: 1,
	}, track.FuncSink(func(bank, row, victims int, now dram.Time) {
		mitigated = append(mitigated, row)
	})))
	for i := 0; i < 5000; i++ {
		m2.OnActivate(0, hot, 0)
		m2.OnActivate(0, rng.Intn(100000), 0)
	}
	m2.OnRFM(0, 0) // Mithril mitigates under REF only: no-op
	if len(mitigated) != 0 {
		t.Fatal("RFM must not mitigate")
	}
	m2.ServiceALERT(0)
	if len(mitigated) != 1 || mitigated[0] != hot {
		t.Fatalf("mitigated %v, want the hot row %d", mitigated, hot)
	}
}

// TestTRRSamplerEvasion demonstrates the insecurity Table XII reports: an
// attacker who knows the deterministic sampling period parks a decoy
// activation on every sampled slot, so the aggressor is hammered thousands
// of times yet never enters the tracker and is never mitigated.
func TestTRRSamplerEvasion(t *testing.T) {
	var mitigated []int
	tr := must(policies.NewTRR(policies.TRRConfig{
		Geometry:          dram.Default(),
		Mapping:           dram.StridedR2SA,
		Entries:           28,
		MitigateEveryREFs: 4,
		SampleEvery:       16,
	}, track.FuncSink(func(bank, row, victims int, now dram.Time) {
		mitigated = append(mitigated, row)
	})))
	if d, err := track.Lookup("trr"); err != nil || !d.Insecure {
		t.Fatal("TRR must be registered as insecure")
	}
	aggressor := 99999
	ref := 0
	for round := 0; round < 3000; round++ {
		// 15 hammers in the sampler's shadow, then a decoy on the
		// sampled slot.
		for i := 0; i < 15; i++ {
			tr.OnActivate(0, aggressor, 0)
		}
		tr.OnActivate(0, 1000+round%32, 0)
		if round%25 == 0 {
			tr.OnREF(ref, 0)
			ref += 4
		}
	}
	for _, r := range mitigated {
		if r == aggressor {
			t.Fatal("sampler-evading pattern should keep the aggressor unmitigated")
		}
	}
	if len(mitigated) == 0 {
		t.Error("TRR should have mitigated decoys at REF opportunities")
	}
	// Sanity: benign-style uniform traffic IS tracked and mitigated.
	var benignMitigated []int
	tr2 := must(policies.NewTRR(policies.TRRConfig{
		Geometry: dram.Default(), Mapping: dram.StridedR2SA,
		Entries: 28, MitigateEveryREFs: 1, SampleEvery: 16,
	}, track.FuncSink(func(bank, row, victims int, now dram.Time) {
		benignMitigated = append(benignMitigated, row)
	})))
	hot := 777
	for i := 0; i < 10000; i++ {
		tr2.OnActivate(0, hot, 0)
	}
	tr2.OnREF(0, 0)
	if len(benignMitigated) != 1 || benignMitigated[0] != hot {
		t.Errorf("uniform hammering should be tracked: %v", benignMitigated)
	}
}
