# Developer entry points. `make check` is the CI gate: vet + build + the
# race-enabled test suite at short fidelity (full-fidelity experiment paths
# are exercised by `make test`).

GO ?= go

# Short-fidelity preset: tiny timing windows and a single workload so the
# race-enabled sweep finishes in CI time (see DefaultOptions in
# internal/experiments for the variables). MIRZA_PARALLELISM=4 runs the
# experiment job engine with four workers so the race detector watches the
# parallel path, not just -j 1.
SHORT_ENV = MIRZA_MEASURE_MS=0.2 MIRZA_WARMUP_MS=0.1 MIRZA_REPLAY_WINDOWS=2 MIRZA_WORKLOADS=xz MIRZA_PARALLELISM=4

.PHONY: check vet build test test-race test-telemetry serve-check trace-check sweep-check audit conformance fuzz-smoke bench bench-smoke bench-mem perfbench-check clean

check: vet build test-race test-telemetry

# vet also fails on any file gofmt would change (the perfbench build
# directory is skipped: it is build output, not source).
vet:
	$(GO) vet ./...
	@unformatted=$$(find . -name '*.go' -not -path './.bench_build/*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(SHORT_ENV) $(GO) test -race -short ./...

# The telemetry and job-pool suites at full fidelity under the race
# detector: these cover the only registry writes that happen live during
# a parallel run (pool gauges, per-REF histogram observes).
test-telemetry:
	$(GO) test -race ./internal/telemetry/ ./internal/jobs/

# Daemon gate: the serve robustness suites (chaos/soak, backpressure,
# coalescing, drain) and the cliflags suite under the race detector, then
# the scripted end-to-end smoke test — start mirza-serve, run the same
# tiny fig3 twice, assert the second is a byte-identical cache hit, and
# SIGTERM-drain cleanly (see DESIGN.md section 13).
serve-check:
	$(GO) test -race ./internal/serve/ ./internal/cliflags/
	./scripts/serve-smoke.sh

# Trace/tenant gate: the trace-ingestion frontend and multi-tenant
# scenario suites under the race detector, then the scripted golden
# check — the example traces replayed twice and at different worker
# counts, plus the tracereplay/intervm experiment tables at -j 1 vs
# -j 4, must all be byte-identical (see DESIGN.md section 15).
trace-check:
	$(GO) test -race -count=1 ./internal/tracefile/ ./internal/tenant/
	./scripts/trace-check.sh

# Sweep/provenance gate: the sweep-engine and Merkle-ledger suites under
# the race detector (process-level determinism, SIGKILL retry, cache
# reuse, inclusion proofs, tamper detection), then the scripted
# end-to-end check — a 2-worker grid vs a 1-worker rerun must produce
# byte-identical ledgers, `mirza-sweep verify` must prove every entry,
# and flipping one recorded manifest byte must fail verification (see
# DESIGN.md section 17).
sweep-check:
	$(GO) test -race -count=1 ./internal/sweep/ ./internal/provenance/
	./scripts/sweep-check.sh

# Protocol-audit gate: the auditor's unit and property suites (synthetic
# violations, adversarial traffic, the disabled-tFAW canary), then a quick
# fig3 run with -audit so every command the real experiment pipeline issues
# is checked against the DDR5 invariants (see internal/audit, DESIGN.md
# section 12). A violation fails the run with the offending command history.
audit:
	$(GO) test ./internal/audit/
	$(GO) run ./cmd/mirza-bench -quick -exp fig3 -audit -j 4

# Mitigation-conformance gate: every policy registered with the track
# registry runs the full generic battery under the race detector — the
# attack-pattern security sweep against each policy's analytic bound,
# fault-injection robustness (no panics, deterministic replay), stats/
# telemetry counter sanity, and a short audited full-system run (see
# internal/track/conformance, DESIGN.md section 14). A violation prints
# as "policy [check]: detail" and fails the run.
conformance:
	$(GO) test -race -count=1 ./internal/track/conformance/

# Fuzz smoke: 10 s of FuzzBuildMitigation on the -mitigation trust
# boundary (spec string -> cliflags.ParseMitigation -> track.Build -> two
# sub-channel instances -> a short ACT/REF/RFM/ALERT sequence; no panic,
# and a successful Build must construct). Two workers keep it light. A
# failing input is written under internal/track/policies/testdata/fuzz.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzBuildMitigation -fuzztime=10s -parallel=2 ./internal/track/policies/

bench:
	$(GO) test -bench=. -benchtime=1x -run=NONE ./...

# Scheduler hot-path benchmarks with the regression gates: the new
# reusable-event kernel must stay allocation-free and >= 1.5x over the
# preserved legacy container/heap baseline. Results land in
# BENCH_kernel.json (checked in; CI uploads each run's copy as an
# artifact).
bench-smoke:
	$(GO) test -short -run=TestScheduleEventAllocFree -bench=BenchmarkKernel -benchmem ./internal/sim/ \
		| $(GO) run ./cmd/benchjson -out BENCH_kernel.json

# Memory command-path benchmarks with the same gates as bench-smoke: the
# redesigned SubChannel path must stay allocation-free in steady state and
# >= 1.5x over the preserved pre-redesign baseline on every pairing, both
# for the full fig3 system (BenchmarkFig3) and for recorded fig3 request
# streams replayed straight into the channel (BenchmarkFig3MemPath).
# Results land in BENCH_mem.json (checked in; CI uploads each run's copy).
bench-mem:
	$(GO) test -run=TestFig3SteadyStateAllocFree -bench=BenchmarkFig3 -benchmem ./internal/mem/ \
		| $(GO) run ./cmd/benchjson -out BENCH_mem.json

# End-to-end benchmark gate. perfbench is its own module, so the root
# `go test ./...` skips its self-tests (determinism, traced == untraced,
# slicing, BENCHMARK.json in step with the code); they run here. Then one
# unit of every workload at seed 1 must reproduce its reference hash of
# all simulated statistics ("outputs: correct"), so a hot-path change
# that moves a single simulated bit fails (see perfbench/README.md and
# DESIGN.md section 18).
perfbench-check:
	cd perfbench && $(GO) test ./...
	for w in replay_mirza replay_prac timing_fig3; do \
		out=$$(python3 perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
		echo "$$w: $$(echo "$$out" | grep '^outputs')"; \
		echo "$$out" | grep -qx 'outputs: correct' || { echo "$$out"; exit 1; }; \
	done

clean:
	$(GO) clean ./...
