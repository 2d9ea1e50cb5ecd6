# Targets mirror .github/workflows/ci.yml exactly, so a green `make ci`
# locally means a green CI run.

GO ?= go

# PR number stamped into the benchmark-trajectory artifact BENCH_$(PR).json.
PR ?= 32

# Benchmark selector for the trajectory artifacts and the CI gates:
# the kernel Reference/Vectorized pairs, the fast-forward Off/On pairs,
# the pulling-model Reference/Sparse pairs, the bit-sliced
# Reference/Sliced pairs, and the unpaired live round-engine and
# resultdb ingest cells (recorded in the artifact only).
BENCH_PATTERN = ^Benchmark(Kernel|FF|Pull|Bitslice|Live|Store)_
BENCH_PKGS = ./internal/sim ./internal/live ./internal/resultdb

# staticcheck release the lint job pins; `make lint` soft-skips when the
# binary is absent locally (the repo never installs tools on your
# behalf) while CI always installs this exact version.
STATICCHECK_VERSION ?= 2024.1.1

# The live-engine tests live-smoke repeats at GOMAXPROCS 1, 2 and 4.
LIVE_INTERLEAVE_TESTS = TestEngineDifferential|TestStragglerTimesOutAndRejoins|TestCrashedNodeRevivesCleanly|TestFullQuorumTimeoutAborts|TestEngineStallBehavioural|TestLateFrameCountedStaleOnceNeverRead|TestCrashRestartAdjacentRounds|TestStallAcrossCrashShutsDown|TestSharedStepEngages

.PHONY: build test race bench bench-test bench-json bench-smoke fuzz-smoke shard-smoke memo-smoke compare-smoke resultdb-smoke pull-smoke kernel-race-smoke live-smoke lint fmt fmt-check vet ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Smoke test: run every package's benchmarks once, so a benchmark that
# no longer builds or fails its own checks breaks CI. It measures
# nothing; the paper's experiments are the synchcount goldens and the
# root integration tests.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# The repository benchmark's own test suite. bench/ is a separate Go
# module (BENCHMARK.json runs it through bench/run.sh), so `go test
# ./...` at the root never reaches it.
bench-test:
	cd bench && $(GO) test ./...

# Full kernel + fast-forward + pull + bitslice + live + resultdb ingest
# benchmark run, recorded as the repo's benchmark trajectory artifact
# (BENCH_$(PR).json; override with PR=n).
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=2s $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -pr $(PR) -out BENCH_$(PR).json
	@echo "wrote BENCH_$(PR).json"

# Reduced-count pair gates: fails when any paired case speeds up by
# less than its kind's floor in cmd/benchjson's pairings table — the
# vectorized kernel 1.5x over the reference loop (the committed
# trajectory shows >= 5x), the fast-forward engine 5x over the plain
# kernel (>= 8x), the sparse pull kernel 1.5x over the per-node
# reference loop (>= 2.4x), and the bit-sliced kernel 2x over the
# reference loop (>= 2.9x) — or when a kind has no pairs at all.
# Ratios are immune to absolute machine speed but not to scheduler
# noise; 10 iterations per side keeps a single descheduled trial from
# flipping the gates on shared CI runners.
bench-smoke:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -benchmem -benchtime=10x $(BENCH_PKGS) > "$$tmp" && \
	$(GO) run ./cmd/benchjson -gate < "$$tmp"

# Each fuzz target runs with -fuzzminimizetime=0s: minimising a new
# interesting input (60 s by default) shrinks only the saved corpus
# entry, and on a large seed such as FuzzLoadTrajectoryMemo's saved
# fixture it would otherwise stall the 10 s run after its first seconds.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzPackUnpack$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/codec
	$(GO) test -run='^$$' -fuzz='^FuzzStepTotal$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/phaseking
	$(GO) test -run='^$$' -fuzz='^FuzzStepTotal$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/boost
	$(GO) test -run='^$$' -fuzz='^FuzzECountTransition$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/ecount
	$(GO) test -run='^$$' -fuzz='^FuzzECountStepAll$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/ecount
	$(GO) test -run='^$$' -fuzz='^FuzzShardSpec$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzShardSpecParseArbitrary$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzMergeResults$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzReadNDJSON$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzSampler$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/pull
	$(GO) test -run='^$$' -fuzz='^FuzzWireTable$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/pull
	$(GO) test -run='^$$' -fuzz='^FuzzCodecDecode$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/codec
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/live
	$(GO) test -run='^$$' -fuzz='^FuzzField$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/codec
	$(GO) test -run='^$$' -fuzz='^FuzzSeededDraw$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/adversary
	$(GO) test -run='^$$' -fuzz='^FuzzCanonicalTrialRecord$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/harness
	$(GO) test -run='^$$' -fuzz='^FuzzSegmentEncoding$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/resultdb
	$(GO) test -run='^$$' -fuzz='^FuzzOpenStore$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/resultdb
	$(GO) test -run='^$$' -fuzz='^FuzzLoadTrajectoryMemo$$' -fuzztime=10s -fuzzminimizetime=0s ./internal/sim

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

# A persisted fast-forward memo across processes: one -full campaign
# runs cold and saves its confirmed cycles, then again warm from the
# same file. The warm run must be byte-identical to the cold one, and
# the file must hold at least one cycle line. This shape's cycles
# (2,304 rounds) outgrow the engine's per-round configuration history,
# so they are stored with their checkpoint configuration alone.
memo-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	sc=$$tmp/synchcount; \
	args="-alg optimal -f 1 -c 4 -faults 2 -full -rounds 8192 -trials 8 -memo $$tmp/m.ndjson"; \
	$(GO) build -o $$sc ./cmd/synchcount && \
	$$sc countsim $$args -json $$tmp/cold.json >/dev/null && \
	$$sc countsim $$args -json $$tmp/warm.json >/dev/null && \
	cmp $$tmp/cold.json $$tmp/warm.json && \
	test "$$(wc -l < $$tmp/m.ndjson)" -ge 2 && \
	echo "memo-smoke: warm run is byte-identical to the cold one; the memo holds $$(($$(wc -l < $$tmp/m.ndjson) - 1)) cycles"

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
	$(GO) test -run='^TestPullKernel' ./internal/sim
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

# Live-runtime gate: the package suite under the race detector; the
# synchroniser's barrier tests again at GOMAXPROCS 1, 2 and 4 (set
# through the test's -cpu flag), so the arrival gate and slot stamps
# race under each scheduler shape; then two seeded soaks on one
# race-instrumented synchcount binary, each run twice from the same
# seed: the ecount n=32 f=3 soak stack (crash/restart
# plus a partition per burst) and the live-engine benchmark's maxstep
# n=128 stack under every deterministic chaos kind, whose fault-free
# rounds take the engine's full-column merge. The PASS verdict (exit
# code) asserts every burst re-stabilised within the stack's declared
# bound; the byte-diffs assert the chaos timeline and the per-fault
# recovery-latency records replay identically across real goroutine
# concurrency; the ingest closes the loop into resultdb. (The package
# suite pins the engine byte-identical to its single-goroutine lockstep
# model, internal/live/lockstep_test.go.) Each soak takes a few seconds
# under the race detector.
live-smoke:
	$(GO) test -race ./internal/live
	$(GO) test -race -cpu 1,2,4 -run '$(LIVE_INTERLEAVE_TESTS)' ./internal/live
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	sc=$$tmp/synchcount; \
	soak() { \
		tag=$$1; shift; \
		$$sc liverun "$$@" -timeline > $$tmp/$$tag-timeline-a.txt && \
		$$sc liverun "$$@" -timeline > $$tmp/$$tag-timeline-b.txt && \
		cmp $$tmp/$$tag-timeline-a.txt $$tmp/$$tag-timeline-b.txt && \
		$$sc liverun "$$@" -ndjson $$tmp/$$tag-a.ndjson && \
		$$sc liverun "$$@" -ndjson $$tmp/$$tag-b.ndjson && \
		cmp $$tmp/$$tag-a.ndjson $$tmp/$$tag-b.ndjson; \
	}; \
	$(GO) build -race -o $$sc ./cmd/synchcount && \
	soak ecount -n 32 -f 3 -c 8 -seed 1 -faults crash,partition -bursts 2 -burst-len 8 -timeout 5s -budget 240s && \
	$$sc resultdb ingest -db $$tmp/store $$tmp/ecount-a.ndjson && \
	soak maxstep -alg maxstep -n 128 -f 0 -c 8 -seed 1 -faults crash,loss,corrupt,dup,delay,partition -bursts 3 -burst-len 8 -timeout 5s -budget 240s && \
	echo "live-smoke: soaks passed within the declared bound; timelines and recovery records replay byte-identically"

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

ci: build vet fmt-check lint race fuzz-smoke bench bench-test pull-smoke kernel-race-smoke shard-smoke memo-smoke compare-smoke resultdb-smoke bench-smoke live-smoke
