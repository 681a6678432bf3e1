package policies_test

import (
	"testing"

	"mirza/internal/cliflags"
	"mirza/internal/dram"
	"mirza/internal/track"
	_ "mirza/internal/track/policies"
)

// FuzzBuildMitigation fuzzes the -mitigation trust boundary end to end: a
// spec string goes through the CLI parser, the registry's Build, and
// construction for two sub-channels, and each instance then takes a short
// fixed ACT/REF/RFM/ALERT sequence. Nothing may panic, and a spec that
// Build accepts must construct for every sub-channel. The seed corpus in
// testdata/fuzz holds every policy bare, every schema key at 0, -1 and 1,
// and regression specs.
//
//	go test ./internal/track/policies -run '^$' -fuzz FuzzBuildMitigation -fuzztime 10s
func FuzzBuildMitigation(f *testing.F) {
	env := track.Config{Geometry: dram.Default(), Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1}
	f.Fuzz(func(t *testing.T, spec string) {
		name, overrides, err := cliflags.ParseMitigation(spec)
		if err != nil {
			return
		}
		b, err := track.Build(name, overrides, env)
		if err != nil {
			return
		}
		for sub := 0; sub < 2; sub++ {
			m, err := b.NewMitigator(sub, track.NopSink{})
			if err != nil {
				t.Fatalf("%q: Build succeeded but NewMitigator(%d) failed: %v", spec, sub, err)
			}
			drive(m)
		}
	})
}

// drive feeds m a short fixed command sequence touching every callback.
func drive(m track.Mitigator) {
	var now dram.Time
	for i := 0; i < 256; i++ {
		now += 50 * dram.Nanosecond
		m.OnActivate(i%3, 1000+2*(i%4), now)
		if m.WantsALERT() {
			m.ServiceALERT(now)
		}
		switch i % 64 {
		case 21:
			m.OnRFM(i%3, now)
		case 42:
			m.OnREF(i/64, now)
		case 63:
			m.ServiceALERT(now)
		}
	}
}
