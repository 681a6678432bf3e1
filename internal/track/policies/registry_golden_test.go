package policies

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mirza/internal/dram"
	"mirza/internal/track"
)

// Regenerate after an intended registry change with
//
//	go test ./internal/track/policies -run TestRegistryGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the registry golden")

// renderRegistry renders the whole registry contract: every registered
// policy's descriptor (name, doc, insecure flag, schema) and, at each
// provisioning point, its default params, the memory-controller settings
// Build derives and the constructed instance's Name().
func renderRegistry(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, d := range track.Descriptors() {
		fmt.Fprintf(&b, "== %s\n", d.Name)
		fmt.Fprintf(&b, "doc: %s\n", d.Doc)
		fmt.Fprintf(&b, "insecure: %v\n", d.Insecure)
		for _, p := range d.ConfigSchema {
			fmt.Fprintf(&b, "param %s (%s): %s\n", p.Key, p.Kind, p.Doc)
		}
		for _, trhd := range []int{500, 1000, 2000} {
			built, err := track.Build(d.Name, nil, track.Config{
				Geometry: dram.Default(),
				Mapping:  dram.StridedR2SA,
				TRHD:     trhd,
				Seed:     1,
			})
			if err != nil {
				fmt.Fprintf(&b, "trhd=%d: build error: %v\n", trhd, err)
				continue
			}
			params := built.Params()
			keys := make([]string, 0, len(params))
			for k, v := range params {
				keys = append(keys, k+"="+v)
			}
			sort.Strings(keys)
			tm := built.Timing()
			bound := built.Bound()
			m, err := built.NewMitigator(0, track.NopSink{})
			name := ""
			if err != nil {
				name = "error: " + err.Error()
			} else {
				name = m.Name()
			}
			fmt.Fprintf(&b, "trhd=%d: params [%s] tRC=%d tRP=%d rfmbat=%d bound=%d (%s) instance=%s\n",
				trhd, strings.Join(keys, " "), tm.TRC, tm.TRP, built.RFMBAT(), bound.TRHD, bound.Kind, name)
		}
	}
	return b.String()
}

// TestRegistryGolden pins the registry contract byte for byte, so moving
// policy code between files or packages cannot silently change a default,
// a timing overlay, a bound or an instance name.
func TestRegistryGolden(t *testing.T) {
	got := renderRegistry(t)
	path := filepath.Join("testdata", "registry.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("registry diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
