package replay

import (
	"math"
	"testing"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/trace"
	"mirza/internal/track"
)

func gens(t *testing.T, name string, n int) []trace.Generator {
	t.Helper()
	spec, err := trace.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := trace.PerCore(spec, n, 42)
	if err != nil {
		t.Fatal(err)
	}
	return gs
}

func TestReplayBasics(t *testing.T) {
	r, err := NewRunner(Config{IPS: 8e9}, gens(t, "mcf", 8), nil)
	if err != nil {
		t.Fatal(err)
	}
	var observed int64
	r.Run(2*dram.Millisecond, func(sub, bank, row int, now dram.Time) {
		observed++
	})
	st := r.Stats()
	var acts, refs int64
	for _, s := range st {
		acts += s.ACTs
		refs += s.REFs
	}
	if acts == 0 || observed != acts {
		t.Fatalf("acts=%d observed=%d", acts, observed)
	}
	// REF cadence: 2ms / 3.9us per sub-channel.
	wantREFs := int64(2 * (2 * dram.Millisecond) / dram.DDR5().TREFI)
	if refs < wantREFs-2 || refs > wantREFs+2 {
		t.Errorf("REFs = %d, want ~%d", refs, wantREFs)
	}
	if r.Now() != 2*dram.Millisecond {
		t.Errorf("now = %v", r.Now())
	}
}

func TestReplayActRateTracksIPS(t *testing.T) {
	// Doubling IPS should roughly double activations per unit time.
	run := func(ips float64) int64 {
		r, err := NewRunner(Config{IPS: ips}, gens(t, "mcf", 8), nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Run(dram.Millisecond, nil)
		var acts int64
		for _, s := range r.Stats() {
			acts += s.ACTs
		}
		return acts
	}
	a := run(4e9)
	b := run(8e9)
	ratio := float64(b) / float64(a)
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("ACT ratio for 2x IPS = %.2f, want ~2", ratio)
	}
}

func TestReplayDrivesMitigator(t *testing.T) {
	cfg, _ := core.ForTRHD(1000)
	cfg.FTH = 50 // tiny so alerts occur quickly
	g := dram.Default()
	mits := make([]track.Mitigator, g.SubChannels)
	for i := range mits {
		c := cfg
		c.Seed = uint64(i)
		mits[i] = core.MustNew(c, track.NopSink{})
	}
	r, err := NewRunner(Config{IPS: 8e9}, gens(t, "fotonik3d", 8), mits)
	if err != nil {
		t.Fatal(err)
	}
	r.Run(4*dram.Millisecond, nil)
	var alerts int64
	for _, s := range r.Stats() {
		alerts += s.Alerts
	}
	if alerts == 0 {
		t.Error("tiny-FTH MIRZA should have alerted under fotonik3d")
	}
	m := mits[0].(*core.Mirza)
	if m.Stats.ACTs == 0 || m.Stats.Mitigations == 0 {
		t.Errorf("mitigator unused: %+v", m.Stats)
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := NewRunner(Config{}, gens(t, "mcf", 2), nil); err == nil {
		t.Error("zero IPS must be rejected")
	}
	// A NaN or infinite rate gives the cores NaN or zero clocks, and Run
	// would never reach its end time.
	for _, ips := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := NewRunner(Config{IPS: ips}, gens(t, "mcf", 2), nil); err == nil {
			t.Errorf("IPS=%v must be rejected", ips)
		}
	}
	if _, err := NewRunner(Config{IPS: 1e9}, nil, nil); err == nil {
		t.Error("no generators must be rejected")
	}
	if _, err := NewRunner(Config{IPS: 1e9}, gens(t, "mcf", 1), make([]track.Mitigator, 5)); err == nil {
		t.Error("mitigator count mismatch must be rejected")
	}
}
