// Command benchjson converts `go test -bench` output into the
// repository's benchmark-trajectory JSON artifacts (BENCH_<pr>.json)
// and doubles as the CI regression gate for the round kernels and the
// fast-forward engine.
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
// recorded unpaired:
//
//	go test -run '^$' -bench '^Benchmark(Kernel|FF|Pull|Bitslice|Live)_' -benchmem \
//	./internal/sim ./internal/live | benchjson -pr 12 -out BENCH_12.json
//
// With -gate it exits non-zero when any pair speeds up by less than
// its kind's floor in the pairings table, or when a kind has no pairs
// at all — the `make bench-smoke` CI job runs the benchmarks at a
// reduced count and uses this to catch regressions without flaking on
// absolute timings, since both sides of a pair run on the same machine
// in the same invocation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
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

// Report is the BENCH_<pr>.json schema.
type Report struct {
	Schema      string       `json:"schema"`
	PR          int          `json:"pr"`
	Goos        string       `json:"goos,omitempty"`
	Goarch      string       `json:"goarch,omitempty"`
	CPU         string       `json:"cpu,omitempty"`
	Pkg         string       `json:"pkg,omitempty"`
	Benchmarks  []Benchmark  `json:"benchmarks"`
	Comparisons []Comparison `json:"comparisons"`
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
	gateFloors := flag.Bool("gate", false, "fail unless every pair speeds up at least its kind's floor (kernel 1.5x, fastforward 5x, pull 1.5x, bitslice 2x)")
	flag.Parse()

	report, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fatal(err)
	}
	report.PR = *pr

	if len(report.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin (run with -bench and pipe the output here)"))
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

	if *gateFloors {
		if err := gate(report.Comparisons, os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// gate holds every comparison to its kind's floor, logging one line
// per pair to w. It fails when a pair falls below its floor, or when a
// kind has no pairs at all (a renamed benchmark must not switch its
// gate off silently).
func gate(comparisons []Comparison, w io.Writer) error {
	failed := false
	for _, p := range pairings {
		found := false
		for _, c := range comparisons {
			if c.Kind != p.kind {
				continue
			}
			found = true
			status := "ok"
			if c.Speedup < p.floor {
				status = "FAIL"
				failed = true
			}
			fmt.Fprintf(w, "bench-smoke: %-11s %-28s speedup %6.2fx (min %.2fx) %s\n",
				p.kind, c.Case, c.Speedup, p.floor, status)
		}
		if !found {
			return fmt.Errorf("-gate set but no %s pairs found", p.kind)
		}
	}
	if failed {
		return fmt.Errorf("speedup regression: at least one comparison below its floor")
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

// pairings lists the slow/fast prefix pairs, their comparison kind and
// the speedup floor -gate holds every pair of the kind to. The floors
// sit well under the committed trajectory (kernel >= 5x, fast-forward
// >= 8x, pull >= 2.4x, bitslice >= 2.9x in BENCH_26.json), so they
// catch large regressions without flaking on scheduler noise.
var pairings = []struct {
	kind  string
	slow  string
	fast  string
	floor float64
}{
	{kindKernel, refPrefix, vecPrefix, 1.5},
	{kindFastForward, ffOffPrefix, ffOnPrefix, 5},
	{kindPull, pullRefPrefix, pullSpPrefix, 1.5},
	{kindBitslice, bsRefPrefix, bsSlPrefix, 2},
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
