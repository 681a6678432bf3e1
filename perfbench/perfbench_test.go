package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/trace"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricDefinitions(t *testing.T) {
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q declared twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %q: bad unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the program's declarations in
// step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []jm                    `json:"end_to_end"`
		PerLayer  []jm                    `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []jm, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, w)
			}
			if bounded && (g.Bound == nil || *g.Bound != w.bound) {
				t.Errorf("%s %s: bound %v, program %v", kind, g.Name, g.Bound, w.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, g.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
}

func TestParseArgs(t *testing.T) {
	good := []string{"--workload", "replay_prac", "--seed", "7", "--seconds", "3", "--trace", "1"}
	o, err := parseArgs(good)
	if err != nil {
		t.Fatal(err)
	}
	if o.w.name != "replay_prac" || o.seed != 7 || o.seconds != 3 || !o.traced {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", ""},
		{},
		{"--workload", "replay_mirza", "--seed", "abc"},
		{"--workload", "replay_mirza", "--seed", "-1"},
		{"--workload", "replay_mirza", "--seed", "1.5"},
		{"--workload", "replay_mirza", "--seconds", "0"},
		{"--workload", "replay_mirza", "--trace", "2"},
		{"--workload", "replay_mirza", "extra"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%q) accepted", bad)
		}
	}
}

// small is a workload of short windows covering both engines and both
// tracker families, so the checks below run in seconds.
var small = workload{name: "small", plans: []plan{
	{trace: "xz", policy: "mirza", warmup: 2 * dram.Millisecond, measure: 2 * dram.Millisecond,
		slices: 4, segment: dram.Millisecond / 2},
	{trace: "bc", policy: "prac", warmup: 2 * dram.Millisecond, measure: 2 * dram.Millisecond,
		slices: 4, segment: dram.Millisecond},
	{trace: "fotonik3d", policy: "mint-rfm", timing: true, warmup: dram.Millisecond / 10,
		measure: dram.Millisecond / 5, slices: 3, segment: dram.Millisecond / 20},
}}

// TestSameSeedSameHash: units at one seed hash identically, the traced
// unit included, and the isolated layer replays reproduce the live run.
func TestSameSeedSameHash(t *testing.T) {
	m := newMeasurement(&small, 3)
	for _, traced := range []bool{false, false, true} {
		if err := m.unit(traced, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if m.failed != 0 {
		t.Fatalf("%d of %d units failed their checks or hashed differently", m.failed, m.attempted)
	}
	for _, f := range m.findings {
		t.Errorf("finding: %s", f)
	}
	other := newMeasurement(&small, 4)
	if err := other.unit(false, io.Discard); err != nil {
		t.Fatal(err)
	}
	if other.hash == m.hash {
		t.Error("seeds 3 and 4 produced the same hash: the seed does not reach the inputs")
	}
}

// TestSlicingKeepsResults: advancing in timed slices or segments gives the
// statistics a single run to the same instant gives.
func TestSlicingKeepsResults(t *testing.T) {
	for _, p := range small.plans {
		whole, err := build(p, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		whole.advance(p.warmup)
		whole.mark()
		whole.advance(p.warmup + p.measure)
		sliced, err := build(p, 5, nil)
		if err != nil {
			t.Fatal(err)
		}
		newMeasurement(&small, 5).advance(0, p, sliced)
		if a, b := digest(whole), digest(sliced); a != b {
			t.Errorf("%s: sliced run differs from a single run", p)
		}
	}
}

func digest(s simulation) string {
	h := sha256.New()
	s.digest(h)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestRecGenForwardsFootprint: the recording wrapper must expose the
// footprint, or the simulators skip the prefault and every number changes.
func TestRecGenForwardsFootprint(t *testing.T) {
	p := small.plans[0]
	tr, err := newTracer(p, 1, &layerTimes{})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := trace.Lookup(p.trace)
	gens, _ := trace.PerCore(spec, cores, 1)
	wrapped, err := tr.wrapGens(gens)
	if err != nil {
		t.Fatal(err)
	}
	for c, g := range wrapped {
		fp, ok := g.(footprinter)
		if !ok || fp.FootprintBytes() != gens[c].(footprinter).FootprintBytes() {
			t.Fatalf("core %d: wrapper does not forward FootprintBytes", c)
		}
	}
}
