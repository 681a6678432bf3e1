package track

import (
	"fmt"
	"strings"
	"testing"

	"mirza/internal/dram"
)

func testEnv() Config {
	return Config{Geometry: dram.Default(), Mapping: dram.StridedR2SA, TRHD: 1000, Seed: 1}
}

// testDescriptor registers a toy policy under a unique name and returns it.
func testDescriptor(t *testing.T, name string) Descriptor {
	t.Helper()
	d := Descriptor{
		Name: name,
		Doc:  "test policy",
		ConfigSchema: []ParamSpec{
			{Key: "entries", Kind: IntParam, Doc: "entries"},
			{Key: "p", Kind: FloatParam, Doc: "probability"},
		},
		DefaultConfig: func(cfg Config) (Params, error) {
			return Params{"entries": "28", "p": "0.5"}, nil
		},
		New: func(cfg Config, sink Sink) (Mitigator, error) {
			n, err := cfg.Params.Int("entries")
			if err != nil {
				return nil, err
			}
			if n < 1 {
				return nil, fmt.Errorf("entries must be >= 1, got %d", n)
			}
			return NewNop(), nil
		},
	}
	Register(d)
	return d
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	f()
}

func TestRegisterValidation(t *testing.T) {
	mustPanic(t, "empty name", func() { Register(Descriptor{Name: "  "}) })
	mustPanic(t, "nil New", func() { Register(Descriptor{Name: "reg-test-nilnew"}) })
	mustPanic(t, "reserved chars", func() {
		Register(Descriptor{Name: "bad:name", New: func(Config, Sink) (Mitigator, error) { return NewNop(), nil }})
	})
}

func TestRegisterDuplicatePanics(t *testing.T) {
	testDescriptor(t, "reg-test-dup")
	mustPanic(t, "exact duplicate", func() { testDescriptor(t, "reg-test-dup") })
	// Duplicate detection is case-insensitive.
	mustPanic(t, "case-insensitive duplicate", func() { testDescriptor(t, "Reg-Test-DUP") })
}

func TestLookupCaseInsensitive(t *testing.T) {
	testDescriptor(t, "reg-test-case")
	for _, name := range []string{"reg-test-case", "REG-TEST-CASE", "Reg-Test-Case", "  reg-test-case "} {
		d, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if d.Name != "reg-test-case" {
			t.Fatalf("Lookup(%q) resolved %q", name, d.Name)
		}
	}
}

func TestLookupUnknownNameError(t *testing.T) {
	testDescriptor(t, "reg-test-known")
	_, err := Lookup("definitely-not-registered")
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	for _, want := range []string{
		`unknown mitigation "definitely-not-registered"`,
		"registered mitigations:",
		"reg-test-known",
		"test policy",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestNamesSortedAndCanonical(t *testing.T) {
	testDescriptor(t, "reg-test-zz")
	testDescriptor(t, "reg-test-aa")
	names := Names()
	ia, iz := -1, -1
	for i, n := range names {
		if n == "reg-test-aa" {
			ia = i
		}
		if n == "reg-test-zz" {
			iz = i
		}
	}
	if ia < 0 || iz < 0 || ia > iz {
		t.Fatalf("Names() = %v: want reg-test-aa before reg-test-zz", names)
	}
}

func TestBuildDefaultsAndOverrides(t *testing.T) {
	testDescriptor(t, "reg-test-build")
	b, err := Build("REG-TEST-BUILD", nil, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Params().Int("entries"); got != 28 {
		t.Fatalf("default entries = %d, want 28", got)
	}
	if b.Name() != "reg-test-build" {
		t.Fatalf("Name() = %q", b.Name())
	}
	if b.Timing() != dram.DDR5() {
		t.Fatal("nil Timing hook should default to DDR5")
	}
	if b.RFMBAT() != 0 {
		t.Fatalf("nil RFMBAT hook should default to 0, got %d", b.RFMBAT())
	}
	if bd := b.Bound(); bd.TRHD != 1000 || bd.Kind != "nominal TRHD" {
		t.Fatalf("nil Bound hook gave %+v", bd)
	}

	b, err = Build("reg-test-build", map[string]string{"entries": "7"}, testEnv())
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Params().Int("entries"); got != 7 {
		t.Fatalf("override entries = %d, want 7", got)
	}
	if got, _ := b.Params().Float("p"); got != 0.5 {
		t.Fatalf("untouched default p = %v, want 0.5", got)
	}
	if m := b.Factory()(0, nil); m == nil {
		t.Fatal("Factory returned nil mitigator")
	}
}

func TestBuildRejectsBadOverrides(t *testing.T) {
	testDescriptor(t, "reg-test-bad")
	cases := []struct {
		name      string
		overrides map[string]string
		wantErr   string
	}{
		{"unknown key", map[string]string{"bogus": "1"}, `has no param "bogus"`},
		{"unknown key lists schema", map[string]string{"bogus": "1"}, "entries, p"},
		{"bad int", map[string]string{"entries": "many"}, "not a valid int"},
		{"bad float", map[string]string{"p": "half"}, "not a valid float"},
		{"constructor rejects", map[string]string{"entries": "0"}, "entries must be >= 1"},
		{"unknown name", nil, "unknown mitigation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := "reg-test-bad"
			if tc.name == "unknown name" {
				name = "reg-test-missing"
			}
			_, err := Build(name, tc.overrides, testEnv())
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Build error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParamsAccessors(t *testing.T) {
	p := Params{"i": "-3", "f": "0.25", "s": "hello"}
	if v, err := p.Int("i"); err != nil || v != -3 {
		t.Errorf("Int = %d, %v", v, err)
	}
	if v, err := p.Float("f"); err != nil || v != 0.25 {
		t.Errorf("Float = %v, %v", v, err)
	}
	if v, err := p.Str("s"); err != nil || v != "hello" {
		t.Errorf("Str = %q, %v", v, err)
	}
	if _, err := p.Int("missing"); err == nil {
		t.Error("Int(missing): want error")
	}
	if _, err := p.Int("s"); err == nil {
		t.Error("Int on non-integer: want error")
	}
}
