# Targets mirror .github/workflows/ci.yml exactly, so a green `make ci`
# locally means a green CI run.

GO ?= go

# PR number stamped into the benchmark-trajectory artifact BENCH_$(PR).json.
PR ?= 14

# Benchmark selector for the trajectory artifacts and the CI gates:
# the kernel Reference/Vectorized pairs, the fast-forward Off/On pairs,
# the pulling-model Reference/Sparse pairs, the bit-sliced
# Reference/Sliced pairs, and the unpaired live round-engine cells
# (tracked against the previous artifact by the baseline diff).
BENCH_PATTERN = ^Benchmark(Kernel|FF|Pull|Bitslice|Live)_
BENCH_PKGS = ./internal/sim ./internal/pull ./internal/live

# Previous trajectory artifact `make bench-diff` compares against, and
# its optional gate (0 = report only; cross-run ns/op diffs are noisy
# across machines, so the enforced gates live in bench-smoke's
# same-machine ratios instead).
BASELINE ?= BENCH_10.json
MIN_SPEEDUP ?= 0

# staticcheck release the lint job pins; `make lint` soft-skips when the
# binary is absent locally (the repo never installs tools on your
# behalf) while CI always installs this exact version.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: build test race bench bench-test bench-json bench-smoke bench-diff fuzz-smoke shard-smoke compare-smoke resultdb-smoke pull-smoke kernel-race-smoke live-smoke lint fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The repository benchmark's own test suite. bench/ is a separate Go
# module (BENCHMARK.json runs it through bench/run.sh), so `go test
# ./...` at the root never reaches it.
bench-test:
	cd bench && $(GO) test ./...

# Full kernel + fast-forward + pull + bitslice + live benchmark run,
# recorded as the repo's benchmark trajectory artifact (BENCH_$(PR).json;
# override with PR=n).
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=2s $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -pr $(PR) -out BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

# Reduced-count comparisons from ONE captured benchmark run (the
# suite is minute-scale, so it runs once and feeds both evaluations):
#
#  1. pair gates — fails when the vectorized kernel's advantage over
#     the reference loop drops below 1.5x on any kernel pair (the
#     committed trajectory shows >= 3x, so this catches > 2x
#     regressions), when the fast-forward engine's advantage over
#     the plain kernel drops below 5x on any FF pair (the committed
#     trajectory shows >= 9x on every cell), when the sparse pull
#     kernel's advantage over the per-node reference loop drops below
#     1.5x on any pull pair (the committed trajectory shows >= 2.3x),
#     or when the bit-sliced kernel's advantage over the reference
#     loop drops below 2x on any bitslice pair (the committed
#     trajectory shows >= 4x on the randomised cells and far more on
#     the deterministic ones).
#     Ratios are immune to absolute machine speed but not to scheduler
#     noise; 10 iterations per side keeps a single descheduled trial
#     from flipping the gates on shared CI runners.
#  2. baseline diff — the same run diffed against the previous
#     committed trajectory artifact benchmark by benchmark, the live
#     round-engine cells included (informational by default: cross-run
#     ns/op comparisons are machine-sensitive; set MIN_SPEEDUP to
#     enforce a floor).
bench-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=10x $(BENCH_PKGS) > "$$tmp" && \
	$(GO) run ./cmd/benchjson -min-speedup 1.5 -min-ff-speedup 5 -min-pull-speedup 1.5 -min-bitslice-speedup 2 < "$$tmp" && \
	$(GO) run ./cmd/benchjson -baseline $(BASELINE) -min-speedup $(MIN_SPEEDUP) < "$$tmp"

# Standalone baseline diff: reruns the benchmarks and compares against
# the previous trajectory artifact (see bench-smoke, which does the
# same diff off its shared capture). `make bench-diff MIN_SPEEDUP=0.5`
# refuses a 2x slowdown vs the committed baseline.
bench-diff:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=10x $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -baseline $(BASELINE) -min-speedup $(MIN_SPEEDUP)

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzPackUnpack$$' -fuzztime=10s ./internal/codec
	$(GO) test -run='^$$' -fuzz='^FuzzStepTotal$$' -fuzztime=10s ./internal/phaseking
	$(GO) test -run='^$$' -fuzz='^FuzzStepTotal$$' -fuzztime=10s ./internal/boost
	$(GO) test -run='^$$' -fuzz='^FuzzECountTransition$$' -fuzztime=10s ./internal/ecount
	$(GO) test -run='^$$' -fuzz='^FuzzShardSpec$$' -fuzztime=10s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzShardSpecParseArbitrary$$' -fuzztime=10s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzMergeResults$$' -fuzztime=10s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzReadNDJSON$$' -fuzztime=10s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzSampler$$' -fuzztime=10s ./internal/pull
	$(GO) test -run='^$$' -fuzz='^FuzzWireTable$$' -fuzztime=10s ./internal/pull
	$(GO) test -run='^$$' -fuzz='^FuzzCodecDecode$$' -fuzztime=10s ./internal/codec
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=10s ./internal/live

# The smoke targets below build the synchcount binary once into their
# temp dir and drive every step through it, so each step is one process
# — the way a sharded campaign runs on separate machines.

# One campaign as two shards in separate processes, merged, and diffed
# byte-for-byte against the unsharded run.
shard-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	sc=$$tmp/synchcount; \
	args="-alg optimal -f 1 -c 4 -faults 2 -adversary splitvote -trials 8 -seed 7"; \
	$(GO) build -o $$sc ./cmd/synchcount && \
	$$sc countsim $$args -json $$tmp/full.json -ndjson $$tmp/full.ndjson && \
	$$sc countsim $$args -shard 0/2 -json $$tmp/shard0.json && \
	$$sc countsim $$args -shard 1/2 -json $$tmp/shard1.json && \
	$$sc countsim -merge $$tmp/shard0.json,$$tmp/shard1.json \
		-json $$tmp/merged.json -ndjson $$tmp/merged.ndjson && \
	cmp $$tmp/full.json $$tmp/merged.json && \
	cmp $$tmp/full.ndjson $$tmp/merged.ndjson && \
	echo "shard-smoke: sharded merge is byte-identical to the unsharded run"

# One compare campaign as two shards in separate processes, merged,
# and diffed byte-for-byte — JSON, NDJSON and the comparison table —
# against the unsharded run.
compare-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	sc=$$tmp/synchcount; \
	args="-algs ecount,theorem2 -f 1 -c 6 -trials 6 -seed 9"; \
	$(GO) build -o $$sc ./cmd/synchcount && \
	$$sc compare $$args -json $$tmp/full.json -ndjson $$tmp/full.ndjson -table $$tmp/full.csv && \
	$$sc compare $$args -shard 0/2 -json $$tmp/shard0.json && \
	$$sc compare $$args -shard 1/2 -json $$tmp/shard1.json && \
	$$sc compare $$args -merge $$tmp/shard0.json,$$tmp/shard1.json \
		-json $$tmp/merged.json -ndjson $$tmp/merged.ndjson -table $$tmp/merged.csv && \
	cmp $$tmp/full.json $$tmp/merged.json && \
	cmp $$tmp/full.ndjson $$tmp/merged.ndjson && \
	cmp $$tmp/full.csv $$tmp/merged.csv && \
	echo "compare-smoke: sharded compare merge is byte-identical to the unsharded run"

# The results database closing the loop on the streaming exports: one
# compare campaign runs live (table + per-trial CSV), then again as
# three NDJSON shards ingested out of order — plus one shard twice, so
# dedup is exercised — and the store-reconstructed comparison table and
# per-trial CSV must be byte-identical to the live run's. (The query
# CSV comparison relies on this cell grid being alphabetical in grid
# order; the compare-table path enforces grid order itself.)
resultdb-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	sc=$$tmp/synchcount; \
	args="-algs ecount,theorem2 -f 1 -c 6 -trials 6 -seed 9"; \
	$(GO) build -o $$sc ./cmd/synchcount && \
	$$sc compare $$args -table $$tmp/live.csv -csv $$tmp/live-trials.csv >/dev/null && \
	$$sc compare $$args -shard 0/3 -ndjson $$tmp/s0.ndjson >/dev/null && \
	$$sc compare $$args -shard 1/3 -ndjson $$tmp/s1.ndjson >/dev/null && \
	$$sc compare $$args -shard 2/3 -ndjson $$tmp/s2.ndjson >/dev/null && \
	$$sc resultdb ingest -db $$tmp/store $$tmp/s1.ndjson $$tmp/s0.ndjson $$tmp/s2.ndjson && \
	$$sc resultdb ingest -db $$tmp/store $$tmp/s0.ndjson && \
	$$sc resultdb compare-table -db $$tmp/store -algs ecount,theorem2 -f 1 -c 6 -seed 9 -table $$tmp/store.csv >/dev/null && \
	cmp $$tmp/live.csv $$tmp/store.csv && \
	$$sc resultdb query -db $$tmp/store -campaign compare -out csv -o $$tmp/store-trials.csv && \
	cmp $$tmp/live-trials.csv $$tmp/store-trials.csv && \
	echo "resultdb-smoke: store-reconstructed table and trial CSV are byte-identical to the live run"

# Sparse pull kernel gate: the differential suite pins the batch path
# bit-identical to the per-node reference loop, then one n=10^5 cell of
# the scale campaign must stabilise every trial inside a 64 MB/trial
# allocation budget and a 5-minute wall budget — a dense recv matrix
# (8n^2 B = 74 GB) cannot pass it.
pull-smoke:
	$(GO) test -run='^TestPullKernel' ./internal/pull
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/synchcount ./cmd/synchcount && \
	timeout 300 $$tmp/synchcount pullbench -scale -scale-n 100000 -trials 2 -budget-mb 64

# The kernel differential suite under the race detector: the three-way
# reference/vectorized/bit-sliced grid, the concurrent-campaign
# determinism check (pooled plane and vote scratch shared across
# workers is exactly where a data race would hide), and the
# counter-level sliced/batch/scalar equivalences. -short bounds the sim
# grid so the instrumented run stays minute-scale; `make race` still
# covers the whole tree at full depth.
kernel-race-smoke:
	$(GO) test -race -short -run '^Test(Kernel|Bitslice)' ./internal/sim
	$(GO) test -race -run 'SlicedMatches' ./internal/counter

# Live-runtime gate: the package suite under the race detector, then a
# short seeded n=32 soak (crash/restart plus a partition per burst) on
# one race-instrumented synchcount binary, twice from the same seed. The
# PASS verdict (exit code) asserts every burst re-stabilised within the
# stack's declared bound; the byte-diffs assert the chaos timeline and
# the per-fault recovery-latency records replay identically across real
# goroutine concurrency; the ingest closes the loop into resultdb. (The
# package suite pins the engine byte-identical to its single-goroutine
# lockstep model, internal/live/lockstep_test.go.)
live-smoke:
	$(GO) test -race ./internal/live
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	args="-n 32 -f 3 -c 8 -seed 1 -faults crash,partition -bursts 2 -burst-len 8 -timeout 5s -budget 240s"; \
	sc=$$tmp/synchcount; \
	$(GO) build -race -o $$sc ./cmd/synchcount && \
	$$sc liverun $$args -timeline > $$tmp/timeline-a.txt && \
	$$sc liverun $$args -timeline > $$tmp/timeline-b.txt && \
	cmp $$tmp/timeline-a.txt $$tmp/timeline-b.txt && \
	$$sc liverun $$args -ndjson $$tmp/soak-a.ndjson && \
	$$sc liverun $$args -ndjson $$tmp/soak-b.ndjson && \
	cmp $$tmp/soak-a.ndjson $$tmp/soak-b.ndjson && \
	$$sc resultdb ingest -db $$tmp/store $$tmp/soak-a.ndjson && \
	echo "live-smoke: soak passed within the declared bound; timeline and recovery records replay byte-identically"

# Static analysis at a pinned staticcheck release. Soft-skips when the
# binary is absent (this repo never installs tools implicitly); CI
# installs $(STATICCHECK_VERSION) and then runs this same target.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks=SA\* ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))"; \
	fi

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

ci: build vet fmt-check lint race fuzz-smoke bench bench-test pull-smoke kernel-race-smoke shard-smoke compare-smoke resultdb-smoke bench-smoke live-smoke
