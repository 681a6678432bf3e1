package policies

import (
	"fmt"
	"testing"

	"mirza/internal/core"
	"mirza/internal/dram"
	"mirza/internal/security"
	"mirza/internal/track"
)

func buildDefault(t *testing.T, name string, trhd int) *track.Built {
	t.Helper()
	b, err := track.Build(name, nil, track.Config{
		Geometry: dram.Default(),
		Mapping:  dram.StridedR2SA,
		TRHD:     trhd,
		Seed:     1,
	})
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return b
}

// TestDefaultsMatchTableI pins every registration's DefaultConfig to the
// provisioning the bespoke construction sites used before the registry:
// Table-I parameters must live in exactly one place and keep their values.
func TestDefaultsMatchTableI(t *testing.T) {
	const trhd = 1000
	mint := security.DefaultMINTModel()
	mirzaCfg, err := core.ForTRHD(trhd)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]string{
		"prac":     {"ath": fmt.Sprint(ATHForTRHD(trhd))},
		"mint-rfm": {"window": fmt.Sprint(mint.WindowForTRHD(trhd))},
		"mint-ref": {"window": fmt.Sprint(security.WindowPerREFs(dram.DDR5(), 1)), "every": "1"},
		"trr":      {"entries": "28", "every": "4", "sample": "16"},
		"mithril":  {"entries": "2048", "every": "1"},
		"mopac":    {"p": "0.1", "ath": "0"},
		"mirza": {
			"fth":     fmt.Sprint(mirzaCfg.FTH),
			"window":  fmt.Sprint(mirzaCfg.MINTWindow),
			"regions": fmt.Sprint(mirzaCfg.Regions),
			"queue":   fmt.Sprint(mirzaCfg.QueueSize),
			"qth":     fmt.Sprint(mirzaCfg.QTH),
			"reset":   mirzaCfg.ResetPolicy.String(),
		},
		"naive-mirza": {"fth": "0"},
	}
	for name, params := range want {
		b := buildDefault(t, name, trhd)
		got := b.Params()
		for key, val := range params {
			if got[key] != val {
				t.Errorf("%s: default %s = %q, want %q", name, key, got[key], val)
			}
		}
	}
}

// TestTimingAndRFMOverlays pins which policies demand the PRAC timing
// overlay and which drive the memory controller's RFM cadence.
func TestTimingAndRFMOverlays(t *testing.T) {
	const trhd = 1000
	pracTRC := dram.PRAC().TRC
	ddr5TRC := dram.DDR5().TRC
	for _, name := range []string{"prac", "mopac"} {
		if got := buildDefault(t, name, trhd).Timing().TRC; got != pracTRC {
			t.Errorf("%s: TRC = %v, want PRAC overlay %v", name, got, pracTRC)
		}
	}
	for _, name := range []string{"none", "mint-ref", "trr", "mithril", "mirza", "graphene", "oracle"} {
		if got := buildDefault(t, name, trhd).Timing().TRC; got != ddr5TRC {
			t.Errorf("%s: TRC = %v, want plain DDR5 %v", name, got, ddr5TRC)
		}
	}
	w := security.DefaultMINTModel().WindowForTRHD(trhd)
	for _, name := range []string{"mint-rfm", "loaded-dice"} {
		if got := buildDefault(t, name, trhd).RFMBAT(); got != w {
			t.Errorf("%s: RFMBAT = %d, want MINT window %d", name, got, w)
		}
	}
	for _, name := range []string{"prac", "mirza", "graphene", "oracle", "none"} {
		if got := buildDefault(t, name, trhd).RFMBAT(); got != 0 {
			t.Errorf("%s: RFMBAT = %d, want 0 (no RFM cadence)", name, got)
		}
	}
}

// TestBoundsAreMeaningful checks each secure policy declares a positive
// bound of the right analytic family, and insecure ones are flagged.
func TestBoundsAreMeaningful(t *testing.T) {
	const trhd = 1000
	cases := map[string]int{
		"prac":        trhd,           // deterministic: provisioned TRHD
		"oracle":      2 * (trhd / 2), // 2T at threshold T
		"graphene":    4 * (trhd / 4), // Misra-Gries 4T
		"mirza":       0,              // SafeTRHD, positive
		"mint-rfm":    0,              // MINT analytic, positive
		"loaded-dice": 0,              // MINT analytic, positive
	}
	for name, exact := range cases {
		b := buildDefault(t, name, trhd)
		bound := b.Bound()
		if bound.TRHD <= 0 {
			t.Errorf("%s: bound %d not positive", name, bound.TRHD)
		}
		if exact != 0 && bound.TRHD != exact {
			t.Errorf("%s: bound = %d, want %d", name, bound.TRHD, exact)
		}
		if b.Insecure() {
			t.Errorf("%s: unexpectedly flagged insecure", name)
		}
	}
	for _, name := range []string{"none", "trr"} {
		if !buildDefault(t, name, trhd).Insecure() {
			t.Errorf("%s: not flagged insecure", name)
		}
	}
}

// TestInstancesExposeStats ensures every registered policy's instance is
// visible to telemetry and the auditor.
func TestInstancesExposeStats(t *testing.T) {
	for _, name := range track.Names() {
		b := buildDefault(t, name, 1000)
		m, err := b.NewMitigator(0, track.NopSink{})
		if err != nil {
			t.Fatalf("%s: NewMitigator: %v", name, err)
		}
		if m.Name() == "" {
			t.Errorf("%s: instance has an empty Name()", name)
		}
		if track.Source(m) == nil {
			t.Errorf("%s: instance exposes no StatsSource", name)
		}
	}
}

// TestBuildRejectsCounterOverflow: PRAC's row counters are 16 bits, so an
// ATH that the counter cannot reach (ath + inc - 1 > 65535) must fail at
// Build instead of wrapping silently and never raising an ALERT.
func TestBuildRejectsCounterOverflow(t *testing.T) {
	env := track.Config{Geometry: dram.Default(), Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1}
	for _, tc := range []struct {
		name      string
		overrides map[string]string
		ok        bool
	}{
		{"prac", map[string]string{"ath": "70000"}, false},
		{"prac", map[string]string{"ath": "65536"}, false},
		{"prac", map[string]string{"ath": "65535"}, true},
		{"mopac", map[string]string{"p": "0.25", "ath": "65535"}, false},
		{"mopac", map[string]string{"p": "0.25", "ath": "65532"}, true},
		{"mopac", map[string]string{"p": "1e-300"}, false},
	} {
		if _, err := track.Build(tc.name, tc.overrides, env); (err == nil) != tc.ok {
			t.Errorf("Build(%s, %v): err = %v, want ok = %v", tc.name, tc.overrides, err, tc.ok)
		}
	}
}
