GO ?= go
FUZZTIME ?= 10s
BENCHTIME ?= 1x
# Aggregate statement-coverage floor, in percent. The suite sat at ~88% when
# the floor was set; drops below the floor fail `make cover` (and ci).
COVERFLOOR ?= 85.0

.PHONY: all build test race vet fmt golden golden-check metrics-check trace-check faults serve-check cover fuzz bench bench-save bench-compare bench-gate ci

# Where bench-save snapshots benchmark output and bench-compare reads it.
BENCHDIR ?= results
BENCHFILE ?= $(BENCHDIR)/bench_baseline.txt

# The machine-readable perf baseline the CI gate defends, written by
# bench-save and compared by bench-gate ('uselessmiss bench', see DESIGN.md
# §10). BENCHTOL is the allowed fractional refs/s drop; allocs/pass on
# pinned paths hard-fails at any tolerance.
BENCHJSON ?= $(BENCHDIR)/BENCH_baseline.json
BENCHTOL ?= 0.10

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The determinism suite under the race detector is the regression guard for
# the parallel sweep engine: any unsynchronized access in a driver or the
# trace cache fails here. Race instrumentation slows the driver replays far
# below real speed (every dense-table probe is an instrumented slice access),
# so give the experiment package room beyond go test's 10m default.
RACETIMEOUT ?= 30m
race:
	$(GO) test -race -timeout $(RACETIMEOUT) ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"

# Refresh the committed golden outputs after an intentional output change.
golden:
	$(GO) test ./cmd/uselessmiss -run TestGoldenOutputs -update

# The golden determinism check: every pinned experiment output must be byte
# identical serially (-j 1) and on the parallel sweep (-j 8).
golden-check:
	$(GO) test ./cmd/uselessmiss -run TestGoldenOutputs -count=1

# The metrics determinism check: drive fig5, fig6 and table1 through the
# real CLI with -metrics at -j 1 and -j 8 and require the whole
# deterministic section of the run reports to be byte-identical and the
# report shape, timings included, to match; then require two identical runs
# to write identical deterministic sections.
metrics-check:
	$(GO) test ./cmd/uselessmiss -count=1 \
		-run 'TestMetricsDeterministicAcrossParallelism|TestMetricsShapeMatrix|TestMetricsFileIsDeterministic'

# The flight-recorder suite: -trace-out must yield a Perfetto-loadable
# trace_event stream covering every pipeline layer, and recording must be a
# pure observer — fig5's stdout stays byte-identical to the golden at -j 1
# and -j 8 with the recorder on, and to the unrecorded run when the block
# sweep is split into one block size per run.
trace-check:
	$(GO) test ./cmd/uselessmiss -count=1 \
		-run 'TestTraceOutPerfettoValid|TestTraceOutGoldenMatrix'

# The failure-model suite under the race detector: the fault injectors
# (internal/fault) at -j 1 and -j 8, the replay's cancellation race and
# failing-reader teardown tests, and the packed trace store's corruption
# suite (truncations, bit flips, hostile TOCs and headers, malformed
# segments), and an interrupted regen — typed errors must propagate,
# nothing may deadlock or leak, corrupt bytes must never decode, and partial
# output must never pass as complete.
faults:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=1 ./internal/trace \
		-run 'TestCancelMidReplayRace|TestDriveFailureNoLeak|TestDriveContextAllocs'
	$(GO) test -race -count=1 ./internal/tracestore \
		-run 'TestTruncation|TestBitFlips|TestOpenBoundsHostileTOCAllocation|TestOpenRejectsBadHeader|TestDecodeSegmentRejectsMalformed'
	$(GO) test -race -count=1 ./cmd/uselessmiss \
		-run 'TestExitCode|TestTimeoutExpires|TestRegenInterruptLeavesCompleteArtifacts'

# The serving-mode suite under the race detector: admission control,
# graceful drain (readyz-first ordering, forced-cancel exit path),
# per-server readiness, the port's own /metrics, /healthz and pprof routes
# and chaos lifecycle leak checks — plus the HTTP-vs-offline differential
# jobs in cmd/uselessmiss. Any unsynchronized access on the submit path or
# a goroutine leaked across a drain fails here.
serve-check:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) test -race -count=1 ./cmd/uselessmiss -run 'TestServeDifferential'

# Enforce the aggregate statement-coverage floor: fails if the whole-repo
# total drops below $(COVERFLOOR)%.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "total coverage: $$total% (floor $(COVERFLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVERFLOOR)" 'BEGIN { exit (t + 0 < f + 0) ? 1 : 0 }' \
		|| { echo "FAIL: coverage $$total% is below the $(COVERFLOOR)% floor"; exit 1; }

# Short fuzzing smoke over every target, starting from the committed seed
# corpora under internal/trace/testdata/fuzz and
# internal/tracestore/testdata/fuzz and the in-code seeds. The 1 s
# minimize bound keeps each target executing inputs for its whole run: with
# the default, the engine stalls at 0 execs/s for seconds at a time while
# it minimizes each new interesting input.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzParseText -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzClassifierRobustness -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzFusedEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/tracestore -run '^$$' -fuzz FuzzTracestoreRoundtrip -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/tracestore -run '^$$' -fuzz FuzzDecodeSegment -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzJobSpec -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

# All benchmarks across every package: the root paper-artifact benchmarks,
# the perfbench harness workloads, and the internal/dense + internal/trace
# microbenchmarks.
bench:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' ./...

# Snapshot the current benchmark numbers as the comparison baselines: the
# raw `go test -bench` text for benchstat, plus the machine-readable
# BENCH_baseline.json the perf gate diffs against. Commit the JSON after an
# intentional perf change (see README "Performance methodology").
bench-save:
	@mkdir -p $(BENCHDIR)
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' ./... | tee $(BENCHFILE)
	$(GO) run ./cmd/uselessmiss bench -o $(BENCHJSON) -log info

# Compare a fresh run against the saved baseline: benchstat when installed,
# otherwise a sorted side-by-side diff of the benchmark lines.
bench-compare:
	@test -f $(BENCHFILE) || { echo "no baseline at $(BENCHFILE); run 'make bench-save' first"; exit 1; }
	@new=$$(mktemp); \
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -run '^$$' ./... > "$$new" || { rm -f "$$new"; exit 1; }; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCHFILE) "$$new"; \
	else \
		old_sorted=$$(mktemp); new_sorted=$$(mktemp); \
		grep '^Benchmark' $(BENCHFILE) | sort > "$$old_sorted"; \
		grep '^Benchmark' "$$new" | sort > "$$new_sorted"; \
		echo "benchstat not installed; showing old (<) vs new (>) benchmark lines:"; \
		diff "$$old_sorted" "$$new_sorted" || true; \
		rm -f "$$old_sorted" "$$new_sorted"; \
	fi; \
	rm -f "$$new"

# The CI perf gate: run the benchmark harness and fail (exit != 0 with
# a regression table) when any workload is slower than the committed
# baseline beyond BENCHTOL, a pinned path allocates per pass, or a baseline
# workload went missing. The fresh BENCH_<host>_<date>.json lands in the
# working directory for artifact upload.
bench-gate:
	@test -f $(BENCHJSON) || { echo "no baseline at $(BENCHJSON); run 'make bench-save' first"; exit 1; }
	$(GO) run ./cmd/uselessmiss bench -baseline $(BENCHJSON) -tolerance $(BENCHTOL) -log info

ci: build vet fmt test race golden-check metrics-check trace-check faults serve-check cover
