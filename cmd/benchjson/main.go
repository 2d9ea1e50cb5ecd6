// Command benchjson converts `go test -bench` output into the
// repository's benchmark-trajectory JSON artifacts (BENCH_<pr>.json)
// and doubles as the CI regression gate for the vectorized round
// kernel and the fast-forward engine.
//
// It reads benchmark output on stdin, parses every benchmark line into
// name/iterations/metrics, and pairs same-machine comparison rows into
// speedup comparisons:
//
//   - BenchmarkKernel_Reference_<case> vs BenchmarkKernel_Vectorized_<case>
//     (kind "kernel": the scalar loop against the vectorized kernel)
//
//   - BenchmarkFF_Off_<case> vs BenchmarkFF_On_<case>
//     (kind "fastforward": the plain kernel against the
//     periodicity-aware fast-forward engine)
//
//   - BenchmarkPull_Reference_<case> vs BenchmarkPull_Sparse_<case>
//     (kind "pull": the per-node pulling-model loop against the sparse
//     batch kernel)
//
//   - BenchmarkBitslice_Reference_<case> vs BenchmarkBitslice_Sliced_<case>
//     (kind "bitslice": the scalar reference loop against the
//     bit-sliced vote kernel)
//
// Other rows — the BenchmarkLive_* round-engine cells among them — are
// recorded unpaired and tracked across artifacts by -baseline:
//
//	go test -run '^$' -bench '^Benchmark(Kernel|FF|Pull|Bitslice|Live)_' -benchmem \
//	./internal/sim ./internal/pull ./internal/live | benchjson -pr 12 -out BENCH_12.json
//
// With -min-speedup S (kernel pairs), -min-ff-speedup S (fastforward
// pairs), -min-pull-speedup S (pull pairs) and -min-bitslice-speedup S
// (bitslice pairs) it exits non-zero when any paired case speeds up
// by less than S× — the `make bench-smoke` CI job runs the benchmarks
// at a reduced count and uses this to catch regressions without
// flaking on absolute timings, since both sides of a pair run on the
// same machine in the same invocation.
//
// With -baseline BENCH_<k>.json it additionally diffs the current run
// against a previous trajectory artifact benchmark by benchmark,
// reporting per-benchmark speedups (baseline ns/op ÷ current ns/op)
// for every name present in both — the `make bench-diff` mode. Those
// diffs compare *across* runs (and possibly machines), so they are
// informational by default; -min-speedup also gates them when
// -baseline is given.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Comparison pairs the slow-side and fast-side measurements of one
// benchmark case: reference vs vectorized for kernel pairs, engine-off
// vs engine-on for fastforward pairs (the reference_/vectorized_
// field names predate the second kind and are kept for artifact
// compatibility; Kind disambiguates).
type Comparison struct {
	Case          string  `json:"case"`
	Kind          string  `json:"kind,omitempty"`
	ReferenceNs   float64 `json:"reference_ns_per_op"`
	VectorizedNs  float64 `json:"vectorized_ns_per_op"`
	Speedup       float64 `json:"speedup"`
	RefAllocs     float64 `json:"reference_allocs_per_op"`
	VecAllocs     float64 `json:"vectorized_allocs_per_op"`
	RefNsPerRound float64 `json:"reference_ns_per_round,omitempty"`
	VecNsPerRound float64 `json:"vectorized_ns_per_round,omitempty"`
}

// BaselineDiff is one benchmark's cross-artifact comparison: the
// committed baseline's ns/op against this run's, for every benchmark
// name present in both.
type BaselineDiff struct {
	Name       string  `json:"name"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	CurrentNs  float64 `json:"current_ns_per_op"`
	Speedup    float64 `json:"speedup"`
}

// Report is the BENCH_<pr>.json schema.
type Report struct {
	Schema        string         `json:"schema"`
	PR            int            `json:"pr"`
	Goos          string         `json:"goos,omitempty"`
	Goarch        string         `json:"goarch,omitempty"`
	CPU           string         `json:"cpu,omitempty"`
	Pkg           string         `json:"pkg,omitempty"`
	Benchmarks    []Benchmark    `json:"benchmarks"`
	Comparisons   []Comparison   `json:"comparisons"`
	BaselinePR    int            `json:"baseline_pr,omitempty"`
	BaselineDiffs []BaselineDiff `json:"baseline_diffs,omitempty"`
}

const (
	refPrefix     = "BenchmarkKernel_Reference_"
	vecPrefix     = "BenchmarkKernel_Vectorized_"
	ffOffPrefix   = "BenchmarkFF_Off_"
	ffOnPrefix    = "BenchmarkFF_On_"
	pullRefPrefix = "BenchmarkPull_Reference_"
	pullSpPrefix  = "BenchmarkPull_Sparse_"
	bsRefPrefix   = "BenchmarkBitslice_Reference_"
	bsSlPrefix    = "BenchmarkBitslice_Sliced_"

	kindKernel      = "kernel"
	kindFastForward = "fastforward"
	kindPull        = "pull"
	kindBitslice    = "bitslice"
)

func main() {
	pr := flag.Int("pr", 0, "PR number stamped into the artifact")
	out := flag.String("out", "", "output path for the JSON artifact ('-' for stdout, empty for check-only)")
	minSpeedup := flag.Float64("min-speedup", 0, "fail unless every kernel Reference/Vectorized pair (and, with -baseline, every baseline diff) speeds up at least this much")
	minFFSpeedup := flag.Float64("min-ff-speedup", 0, "fail unless every fast-forward Off/On pair speeds up at least this much")
	minPullSpeedup := flag.Float64("min-pull-speedup", 0, "fail unless every pull Reference/Sparse pair speeds up at least this much")
	minBitsliceSpeedup := flag.Float64("min-bitslice-speedup", 0, "fail unless every bitslice Reference/Sliced pair speeds up at least this much")
	baseline := flag.String("baseline", "", "previous BENCH_<k>.json artifact to diff this run against benchmark by benchmark")
	flag.Parse()

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	report.PR = *pr

	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin (run with -bench and pipe the output here)"))
	}

	if *baseline != "" {
		if err := diffBaseline(report, *baseline); err != nil {
			fatal(err)
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if *out == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	}

	failed := false
	gate := func(kind, flagName string, min float64) {
		if min <= 0 {
			return
		}
		found := false
		for _, c := range report.Comparisons {
			if c.Kind != kind {
				continue
			}
			found = true
			status := "ok"
			if c.Speedup < min {
				status = "FAIL"
				failed = true
			}
			fmt.Fprintf(os.Stderr, "bench-smoke: %-11s %-28s speedup %6.2fx (min %.2fx) %s\n",
				kind, c.Case, c.Speedup, min, status)
		}
		if !found {
			fatal(fmt.Errorf("%s set but no %s pairs found", flagName, kind))
		}
	}
	gate(kindKernel, "-min-speedup", *minSpeedup)
	gate(kindFastForward, "-min-ff-speedup", *minFFSpeedup)
	gate(kindPull, "-min-pull-speedup", *minPullSpeedup)
	gate(kindBitslice, "-min-bitslice-speedup", *minBitsliceSpeedup)
	for _, d := range report.BaselineDiffs {
		status := ""
		if *minSpeedup > 0 {
			status = " ok"
			if d.Speedup < *minSpeedup {
				status = " FAIL"
				failed = true
			}
		}
		fmt.Fprintf(os.Stderr, "bench-diff: %-44s vs PR %d: %12.0f -> %12.0f ns/op  %6.2fx%s\n",
			d.Name, report.BaselinePR, d.BaselineNs, d.CurrentNs, d.Speedup, status)
	}
	if failed {
		fatal(fmt.Errorf("speedup regression: at least one comparison below its gate"))
	}
}

// diffBaseline loads a previous trajectory artifact and records the
// per-benchmark ns/op speedup of this run against it for every
// benchmark name present in both. Diffs cross runs and possibly
// machines, so absent an explicit gate they are reported, not
// enforced.
func diffBaseline(report *Report, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("baseline %s holds no benchmarks", path)
	}
	baseNs := make(map[string]float64, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		if ns := b.Metrics["ns/op"]; ns > 0 {
			baseNs[b.Name] = ns
		}
	}
	report.BaselinePR = base.PR
	for _, b := range report.Benchmarks {
		cur := b.Metrics["ns/op"]
		prev, ok := baseNs[b.Name]
		if !ok || cur <= 0 {
			continue
		}
		report.BaselineDiffs = append(report.BaselineDiffs, BaselineDiff{
			Name:       b.Name,
			BaselineNs: prev,
			CurrentNs:  cur,
			Speedup:    prev / cur,
		})
	}
	if len(report.BaselineDiffs) == 0 {
		return fmt.Errorf("baseline %s shares no benchmarks with this run", path)
	}
	return nil
}

func parse(sc *bufio.Scanner) (*Report, error) {
	report := &Report{Schema: "synchcount-bench-trajectory/v1"}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			report.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	report.Comparisons = pair(report.Benchmarks)
	return report, nil
}

// parseBenchLine parses one result row:
//
//	BenchmarkX-8   27   43831877 ns/op   90228 ns/round   2297 B/op   11 allocs/op
func parseBenchLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line: %q", line)
	}
	name := fields[0]
	// Strip the -<GOMAXPROCS> suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("bad metric value in %q: %w", line, err)
		}
		b.Metrics[fields[i+1]] = val
	}
	return b, nil
}

// pairings lists the slow/fast prefix pairs and their comparison kind.
var pairings = []struct {
	kind string
	slow string
	fast string
}{
	{kindKernel, refPrefix, vecPrefix},
	{kindFastForward, ffOffPrefix, ffOnPrefix},
	{kindPull, pullRefPrefix, pullSpPrefix},
	{kindBitslice, bsRefPrefix, bsSlPrefix},
}

// pair matches the slow-side row of each pairing with its fast-side
// counterpart: Kernel_Reference_<case> with Kernel_Vectorized_<case>,
// FF_Off_<case> with FF_On_<case>.
func pair(benchmarks []Benchmark) []Comparison {
	byName := map[string]Benchmark{}
	for _, b := range benchmarks {
		byName[b.Name] = b
	}
	var out []Comparison
	for _, p := range pairings {
		for _, b := range benchmarks {
			if !strings.HasPrefix(b.Name, p.slow) {
				continue
			}
			c := strings.TrimPrefix(b.Name, p.slow)
			slow, fast := b, byName[p.fast+c]
			slowNs, fastNs := slow.Metrics["ns/op"], fast.Metrics["ns/op"]
			if slowNs == 0 || fastNs == 0 {
				continue
			}
			out = append(out, Comparison{
				Case:          c,
				Kind:          p.kind,
				ReferenceNs:   slowNs,
				VectorizedNs:  fastNs,
				Speedup:       slowNs / fastNs,
				RefAllocs:     slow.Metrics["allocs/op"],
				VecAllocs:     fast.Metrics["allocs/op"],
				RefNsPerRound: slow.Metrics["ns/round"],
				VecNsPerRound: fast.Metrics["ns/round"],
			})
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
