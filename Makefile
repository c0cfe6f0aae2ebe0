# Development entry points. `make ci` is what a checkin must pass:
# vet + race-enabled tests + a one-iteration benchmark smoke so the
# benchmark code itself cannot rot.

GO ?= go

.PHONY: all build test vet fmt-check lint lint-fix-hints race race-fault race-twin bench-smoke bench-tick bench-tick-json bench-fleet bench-fleet-json bench-http bench-http-json bench-e2e-smoke fuzz-smoke benchguard repin report-diff ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	$(GO) -C bench vet ./...

# Formatting gate: fail listing any file gofmt would rewrite. Runs ahead
# of lint in ci so bzlint's position-based diagnostics always refer to
# canonically formatted source.
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "fmt-check: FAIL — gofmt would rewrite:" >&2; \
		echo "$$unformatted" >&2; \
		echo "fmt-check: run \`gofmt -w .\`" >&2; \
		exit 1; \
	fi; \
	echo "fmt-check: OK"

race:
	$(GO) test -race ./...

# Static invariants: the eight bzlint analyzers (determinism, hotpath,
# floateq, deprecated, statecov, lockcheck, mutroute, testonly) plus the
# stale-waiver report over the whole tree (DESIGN.md §7). testonly needs
# the whole module's references, so it runs only on ./... as here. Exit 1
# on any unwaived diagnostic.
lint:
	$(GO) run ./cmd/bzlint ./...

# Same suite with a suggested rewrite printed under each diagnostic.
lint-fix-hints:
	$(GO) run ./cmd/bzlint -hints ./...

# Fast race pass over the fault-injection and degradation paths: the
# fault plan/apply machinery plus core's failure and degradation tests.
# Runs in seconds (short mode) so the failure paths get race coverage
# even when the full `race` sweep is skipped locally.
race-fault:
	$(GO) test -race -short ./internal/fault
	$(GO) test -race -short -run 'Fault|Degrad|MoteOffline|Jam|Battery|Chiller|Pump|Survives|FailsSafe|Stops' ./internal/core

# The twin's lock discipline under the race detector, ten times over:
# the runner and readers share the fleet lock, each reader waits only for
# its own building's lock, snapshots hold the fleet lock alone, and
# status reads take only the run-queue lock. A panic in a Step, an event
# or a journal replay must leave every building lock free. The snapshot
# round trips run here too, because a fleet exports and restores its
# buildings on its worker pool. So do the pool's claim loop, a fleet's
# buildings claimed at several worker counts against standalone runs,
# and a CSV client that stalls while its export holds a building; these
# last two take seconds a run, so they run twice.
race-twin:
	$(GO) test -race -count=10 -run 'StatusDoesNotWait|ReadersWhileRunning|TestQueryAnswersWhileRunnerWaitsOnAnotherBuilding|TestRunnerPanicFailsOnlyItsTwin|TestTwinSnapshotRoundTrip|TestServerSnapshotRestoreAcrossServers' ./internal/twin
	$(GO) test -race -count=10 -run 'TestEventPanicFailsTheRun|TestRestoreReplayPanicIsAnError|TestFleetSnapshotRoundTrip|TestFleetStateErrorsNameLowestBuilding' ./internal/fleet
	$(GO) test -race -count=10 -run 'TestPool' ./internal/runner
	$(GO) test -race -count=2 -run 'TestFleetDeterminismAcrossShardCounts|TestFleetMixedShardBitIdenticalToStandalone' ./internal/fleet
	$(GO) test -race -count=2 -run 'TestQueryCSVStalledClientFreesRunner' ./internal/twin

# Every benchmark once — correctness of the benchmark harness, not timing.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Tick-kernel smoke: the ticks/sec and per-kernel alloc benchmarks at a
# short fixed iteration count — keeps the kernel benchmarks compiling and
# running in CI without paying for a timed measurement.
bench-tick:
	$(GO) test -bench 'SystemTick|RoomStep|NetworkStep' -benchtime 100x -benchmem -run '^$$' .

# Record the tick-kernel numbers (plus the end-to-end ReportGenerate they
# improve) as BENCH_tick_kernel.json — the measurement quoted in the
# EXPERIMENTS.md Performance section and the baseline scripts/benchguard
# gates against. Best of -count 6 per benchmark (bench_json.sh keeps the
# fastest run), matching benchguard's own measurement procedure so the
# recorded baseline is reproducible, not a single-shot noise draw.
bench-tick-json:
	$(GO) test -bench 'SystemTick|RoomStep|NetworkStep|ReportGenerate$$' -benchmem -count 6 -run '^$$' . \
		| tee /dev/stderr | sh scripts/bench_json.sh > BENCH_tick_kernel.json

# Fleet-scale smoke: every BenchmarkFleetTick configuration once (100,
# 1k, and 10k buildings), exercising parallel construction, the memory
# budget gate, and sharded stepping without paying for a timed run.
bench-fleet:
	$(GO) test -bench FleetTick -benchtime 1x -benchmem -run '^$$' .

# Record the fleet scaling numbers (building-ticks/s and bytes/building
# at N ∈ {100, 1k, 10k}) as BENCH_fleet.json — the table quoted in
# EXPERIMENTS.md and the baseline scripts/benchguard gates against.
# Best of -count 6 per configuration (bench_json.sh keeps the fastest),
# matching the tick-kernel baseline's measurement procedure.
bench-fleet-json:
	$(GO) test -bench FleetTick -benchmem -benchtime 3x -count 6 -run '^$$' . \
		| tee /dev/stderr | sh scripts/bench_json.sh > BENCH_fleet.json

# HTTP service-layer smoke: one BenchmarkHTTPQuery iteration — keeps the
# bubblezerod handler benchmark (create/run/query through the real mux)
# compiling and running in CI without paying for a timed measurement.
# The benchmark lives in internal/twin, NOT the root bench binary: linking
# the twin server into the root test binary measurably perturbs the
# RoomStep kernel's code layout (~10% — enough to trip benchguard).
bench-http:
	$(GO) test -bench HTTPQuery -benchtime 1x -benchmem -run '^$$' ./internal/twin

# Record the HTTP query throughput (queries/s against a live 1k-building
# twin) as BENCH_http.json — the baseline scripts/benchguard gates
# against. Best of -count 6 (bench_json.sh keeps the fastest run),
# matching the other baselines' measurement procedure.
bench-http-json:
	$(GO) test -bench HTTPQuery -benchmem -benchtime 2000x -count 6 -run '^$$' ./internal/twin \
		| tee /dev/stderr | sh scripts/bench_json.sh > BENCH_http.json

# Ten seconds each of coverage-guided fuzzing of three untrusted inputs:
# the trace series decoder, the first decoder a twin restore feeds; the
# twin query's from_s/to_s/step_s window parser; and a whole snapshot
# body through ReadSnapshot and RestoreTwin. `go test` fuzzes one target
# per invocation. Each checked-in corpus (testdata/fuzz beside the
# target) runs first; a failure found here lands there as a new
# regression input. Minimizing an input that finds new coverage can take
# the whole ten seconds (a snapshot input is tens of KB, and the window
# parser stalled at 0 executions/s), so those two targets cap
# minimization at 100 runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSeriesStateGobDecode$$' -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz '^FuzzParseWindow$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/twin
	$(GO) test -run '^$$' -fuzz '^FuzzReadSnapshot$$' -fuzztime 10s -fuzzminimizetime 100x ./internal/twin

# Regression gate: fail when a guarded rate (BenchmarkSystemTick ticks/s,
# BenchmarkFleetTick/N1000xS8 building-ticks/s) falls more than
# BENCHGUARD_PCT (default 10%) below its committed baseline. Best-of-BENCHGUARD_COUNT runs, so one noisy scheduling slice
# on a shared machine cannot fail the build. Ordered first in ci: the
# timing must be taken before the race tests saturate the machine.
benchguard:
	sh scripts/benchguard

# Re-pin the golden epoch after an intentional kernel or model change.
# Requires REASON, refuses to pin metrics outside the documented paper
# bounds, bumps the epoch version, and records the old→new delta. When
# `make ci` fails on a golden digest drift, this is the advertised fix —
# the failing tests print this exact invocation.
repin:
	@test -n "$(REASON)" || { echo 'make repin requires REASON="why the bits moved"' >&2; exit 1; }
	$(GO) run ./cmd/goldendump -repin internal/experiments/testdata/golden_epoch.json -reason "$(REASON)"

# Check that a change moves no reported byte: the -report at seeds 1, 9
# and 26 and `-fig all -hours 1` must be byte-identical to those built at
# BASE (a git revision). Not part of ci, since it needs a base to compare.
report-diff:
	@test -n "$(BASE)" || { echo 'make report-diff requires BASE=<git revision>' >&2; exit 1; }
	GO=$(GO) sh scripts/reportdiff "$(BASE)"

# The end-to-end benchmark's own tests: a tiny-scale run of every
# workload with its correctness gates (fleet bit-identity, byte-identical
# twin answers after a snapshot/restore, report and golden-digest
# checks). bench/ is a separate module, so the root `go test ./...`
# does not reach it.
bench-e2e-smoke:
	$(GO) -C bench test ./...

ci: benchguard fmt-check vet lint race-fault race bench-smoke bench-tick bench-fleet bench-http bench-e2e-smoke race-twin fuzz-smoke
	@echo ci: OK
