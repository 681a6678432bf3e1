package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mirza/internal/provenance"
)

// benchBin is the mirza-bench binary TestMain builds once for every
// engine test; empty when the build failed (tests then skip with the
// recorded error).
var (
	benchBin      string
	benchBuildErr string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sweep-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "mirza-bench")
	cmd := exec.Command("go", "build", "-o", bin, "mirza/cmd/mirza-bench")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		benchBuildErr = fmt.Sprintf("building mirza-bench: %v: %s", err, out)
	} else {
		benchBin = bin
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func needBench(t *testing.T) string {
	t.Helper()
	if benchBin == "" {
		t.Fatalf("mirza-bench unavailable: %s", benchBuildErr)
	}
	return benchBin
}

// quickGrid is a grid cheap enough to execute as real worker processes:
// table1 renders DDR5 timing parameters without a timing simulation.
func quickGrid(from, to uint64) *Grid {
	return &Grid{Experiments: []string{"table1"}, Seeds: SeedRange{From: from, To: to}, Quick: true}
}

// runSweep executes g into a fresh ledger directory and returns it.
func runSweep(t *testing.T, g *Grid, workers int, opts func(*Options)) (string, []ShardResult) {
	t.Helper()
	dir := t.TempDir()
	o := Options{
		Bench:    needBench(t),
		CacheDir: filepath.Join(dir, "cache"),
		Workers:  workers,
	}
	if opts != nil {
		opts(&o)
	}
	eng, err := NewEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := filepath.Join(dir, "ledger")
	l, err := provenance.Open(ledgerDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Record(l, results); err != nil {
		t.Fatal(err)
	}
	return ledgerDir, results
}

// readTree maps relative path -> file bytes for a whole directory.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestProcessShardDeterminism is the tentpole guarantee: the merged
// ledger (entry log, head, every recorded manifest) and the rendered
// table are byte-identical whether the shards ran in one process
// sequentially or across four worker processes.
func TestProcessShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	g := quickGrid(1, 3)
	seqDir, seqRes := runSweep(t, g, 1, nil)
	parDir, parRes := runSweep(t, g, 4, nil)

	for i := range seqRes {
		if seqRes[i].Err != nil || parRes[i].Err != nil {
			t.Fatalf("shard %s failed: seq=%v par=%v", seqRes[i].Shard.ID, seqRes[i].Err, parRes[i].Err)
		}
		if !bytes.Equal(seqRes[i].Manifest, parRes[i].Manifest) {
			t.Fatalf("shard %s manifest differs between -workers 1 and -workers 4", seqRes[i].Shard.ID)
		}
	}
	seqTree, parTree := readTree(t, seqDir), readTree(t, parDir)
	if len(seqTree) != len(parTree) {
		t.Fatalf("ledger trees differ in file count: %d vs %d", len(seqTree), len(parTree))
	}
	for rel, b := range seqTree {
		pb, ok := parTree[rel]
		if !ok {
			t.Fatalf("parallel ledger is missing %s", rel)
		}
		if !bytes.Equal(b, pb) {
			t.Fatalf("ledger file %s differs between -workers 1 and -workers 4:\n%s\nvs\n%s", rel, b, pb)
		}
	}
	seqL, err := provenance.Open(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	parL, err := provenance.Open(parDir)
	if err != nil {
		t.Fatal(err)
	}
	seqTbl, err := Table(seqL)
	if err != nil {
		t.Fatal(err)
	}
	parTbl, err := Table(parL)
	if err != nil {
		t.Fatal(err)
	}
	if seqTbl != parTbl {
		t.Fatalf("rendered tables differ:\n%s\nvs\n%s", seqTbl, parTbl)
	}
	if _, err := VerifyLedger(seqDir); err != nil {
		t.Fatalf("VerifyLedger: %v", err)
	}
}

// TestIncrementalRerunSkipsCachedShards: a second run over a grown grid
// executes only the new seeds, and re-recording leaves every existing
// ledger byte untouched.
func TestIncrementalRerunSkipsCachedShards(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	dir := t.TempDir()
	o := Options{Bench: needBench(t), CacheDir: filepath.Join(dir, "cache"), Workers: 2}
	eng, err := NewEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	ledgerDir := filepath.Join(dir, "ledger")

	first, err := eng.Run(context.Background(), quickGrid(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	l, err := provenance.Open(ledgerDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Record(l, first); err != nil {
		t.Fatal(err)
	}
	before := readTree(t, ledgerDir)

	second, err := eng.Run(context.Background(), quickGrid(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if r.Err != nil {
			t.Fatalf("shard %s: %v", r.Shard.ID, r.Err)
		}
		wantCached := i < 2 // seeds 1 and 2 ran in the first sweep
		if r.Cached != wantCached {
			t.Fatalf("shard %s cached=%v, want %v", r.Shard.ID, r.Cached, wantCached)
		}
	}
	l2, err := provenance.Open(ledgerDir)
	if err != nil {
		t.Fatal(err)
	}
	head, appended, err := Record(l2, second)
	if err != nil {
		t.Fatal(err)
	}
	if appended != 1 || head.Size != 3 {
		t.Fatalf("incremental record appended %d entries to size %d, want +1 to 3", appended, head.Size)
	}
	after := readTree(t, ledgerDir)
	for rel, b := range before {
		if rel == "HEAD.json" || rel == "entries.ndjson" {
			continue // these legitimately grow
		}
		if !bytes.Equal(after[rel], b) {
			t.Fatalf("incremental rerun rewrote %s", rel)
		}
	}
	if !bytes.HasPrefix(after["entries.ndjson"], before["entries.ndjson"]) {
		t.Fatalf("entry log was rewritten, not appended:\n%s\nvs\n%s", before["entries.ndjson"], after["entries.ndjson"])
	}
	if _, err := VerifyLedger(ledgerDir); err != nil {
		t.Fatalf("VerifyLedger after incremental rerun: %v", err)
	}
}

// killingWrapper builds a shell wrapper around mirza-bench that SIGKILLs
// itself on the first attempt per request file, then execs the real
// binary — the worker-death scenario.
func killingWrapper(t *testing.T, markerDir string) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "bench-killer.sh")
	script := `#!/bin/sh
# $1=-shard $2=<request.json> ...
marker="` + markerDir + `/$(basename "$2").killed"
if [ ! -e "$marker" ]; then
  : > "$marker"
  kill -KILL $$
fi
exec "` + needBench(t) + `" "$@"
`
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestWorkerDeathRetryYieldsIdenticalManifest: a shard whose worker is
// SIGKILLed mid-flight is retried, and the retried shard's manifest
// hash equals a never-killed run of the same shard.
func TestWorkerDeathRetryYieldsIdenticalManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	g := quickGrid(7, 7)
	_, cleanRes := runSweep(t, g, 1, nil)

	markerDir := t.TempDir()
	wrapper := killingWrapper(t, markerDir)
	var logs []string
	_, killedRes := runSweep(t, g, 1, func(o *Options) {
		o.Bench = wrapper
		o.Logf = func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
		}
	})

	if killedRes[0].Err != nil {
		t.Fatalf("shard failed despite retry budget: %v", killedRes[0].Err)
	}
	if killedRes[0].Deaths != 1 {
		t.Fatalf("shard survived %d deaths, want exactly 1", killedRes[0].Deaths)
	}
	markers, err := os.ReadDir(markerDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(markers) != 1 {
		t.Fatalf("wrapper killed %d attempts, want 1", len(markers))
	}
	if !bytes.Equal(killedRes[0].Manifest, cleanRes[0].Manifest) {
		t.Fatalf("retried shard manifest differs from the clean run")
	}
	if provenance.LeafHash(killedRes[0].Manifest) != provenance.LeafHash(cleanRes[0].Manifest) {
		t.Fatalf("retried shard leaf hash differs from the clean run")
	}
	found := false
	for _, line := range logs {
		if strings.Contains(line, "worker died") {
			found = true
		}
	}
	if !found {
		t.Fatalf("engine never logged the worker death: %v", logs)
	}
}

// TestDeterministicFailureIsNotRetried: a worker that exits nonzero is
// a deterministic failure — rerunning it would fail identically, so the
// engine must run it exactly once.
func TestDeterministicFailureIsNotRetried(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	countDir := t.TempDir()
	wrapDir := t.TempDir()
	wrapper := filepath.Join(wrapDir, "bench-fail.sh")
	script := `#!/bin/sh
: > "` + countDir + `/attempt-$$"
echo "scripted worker failure" >&2
exit 1
`
	if err := os.WriteFile(wrapper, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Options{Bench: wrapper, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	results, err := eng.Run(context.Background(), quickGrid(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "worker exited 1") {
		t.Fatalf("shard error = %v, want a worker-exit failure", results[0].Err)
	}
	if !strings.Contains(results[0].Err.Error(), "scripted worker failure") {
		t.Fatalf("shard error does not carry the worker's stderr: %v", results[0].Err)
	}
	attempts, err := os.ReadDir(countDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 1 {
		t.Fatalf("deterministic failure ran %d times, want exactly 1", len(attempts))
	}
}

// TestInvalidCacheEntryReruns: a corrupted cache file must be treated
// as a miss (and replaced), never recorded.
func TestInvalidCacheEntryReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("executes worker processes")
	}
	dir := t.TempDir()
	o := Options{Bench: needBench(t), CacheDir: filepath.Join(dir, "cache"), Workers: 1}
	eng, err := NewEngine(o)
	if err != nil {
		t.Fatal(err)
	}
	g := quickGrid(1, 1)
	first, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Err != nil || first[0].Cached {
		t.Fatalf("first run = %+v", first[0])
	}
	// Corrupt the cache entry.
	path := filepath.Join(o.CacheDir, first[0].Key+".json")
	if err := os.WriteFile(path, []byte("{\"garbage\":true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	second, err := eng.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Err != nil {
		t.Fatal(second[0].Err)
	}
	if second[0].Cached {
		t.Fatalf("corrupted cache entry was served as a hit")
	}
	if !bytes.Equal(second[0].Manifest, first[0].Manifest) {
		t.Fatalf("rerun after cache corruption produced different bytes")
	}
}

// TestEmptyMeasureWindowRejected: a measure_ms that rounds to a 0 ps
// window used to pass Prepare and hang the shard's replay forever. The
// grid is now refused before any worker starts, and a worker handed the
// same request directly (mirza-bench -shard) refuses it with exit 2.
func TestEmptyMeasureWindowRejected(t *testing.T) {
	bin := needBench(t)
	eng, err := NewEngine(Options{Bench: bin, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := &Grid{Experiments: []string{"table8"}, Quick: true, MeasureMS: 1e-10}
	if _, err := eng.Run(context.Background(), g); err == nil || !strings.Contains(err.Error(), "measure_ms") {
		t.Fatalf("grid error = %v, want a measure_ms rejection", err)
	}

	dir := t.TempDir()
	req := filepath.Join(dir, "req.json")
	if err := os.WriteFile(req, []byte(`{"experiment":"table8","quick":true,"measure_ms":1e-10}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-shard", req, "-shard-out", filepath.Join(dir, "out.json"))
	cmd.Stderr = &stderr
	err = cmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("mirza-bench -shard: %v (stderr %q), want exit 2", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "measure_ms") {
		t.Errorf("stderr %q does not name measure_ms", stderr.String())
	}
}
