package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json agree reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minAgreeRuns is the smallest run set agree accepts.
const minAgreeRuns = 5

// agreeCLI compares two sets of untraced runs of one workload, each a
// file with one run summary (the last output line of a run) per line.
// It prints every end-to-end metric's median and quartile spread per
// set and exits 1 when any median moved by more than the metric's
// bound in BENCHMARK.json.
func agreeCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("agree", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "bench agree: give two run files: agree A.ndjson B.ndjson")
		return 2
	}
	ok, err := agree(*specPath, fs.Arg(0), fs.Arg(1), stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench agree:", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

func agree(specPath, pathA, pathB string, out io.Writer) (bool, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	if len(spec.EndToEnd) == 0 {
		return false, fmt.Errorf("%s lists no end_to_end metrics", specPath)
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "METRIC\tUNIT\tMEDIAN A\tIQR/MED A\tMEDIAN B\tIQR/MED B\tCHANGE\tBOUND\tVERDICT")
	allOK := true
	for _, m := range spec.EndToEnd {
		va, err := values(a, m.Name, pathA)
		if err != nil {
			return false, err
		}
		vb, err := values(b, m.Name, pathB)
		if err != nil {
			return false, err
		}
		ma, mb := median(va), median(vb)
		change := (mb - ma) / ma
		verdict := "agree"
		if math.Abs(change) > m.Bound || math.IsNaN(change) {
			verdict = "MOVED"
			allOK = false
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.4f\t%.6g\t%.4f\t%+.4f\t%.4f\t%s\n",
			m.Name, m.Unit, ma, spread(va), mb, spread(vb), change, m.Bound, verdict)
	}
	return allOK, tw.Flush()
}

// loadRuns reads a run set: one JSON run summary per line, at least
// minAgreeRuns of them, every one correct.
func loadRuns(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []result
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil || r.Metrics == nil {
			return nil, fmt.Errorf("%s line %d: not a run summary", path, line)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s line %d: the run was not correct (%d of %d operations failed)", path, line, r.Failed, r.Attempted)
		}
		runs = append(runs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) < minAgreeRuns {
		return nil, fmt.Errorf("%s holds %d runs, agree needs at least %d", path, len(runs), minAgreeRuns)
	}
	return runs, nil
}

func values(runs []result, name, path string) ([]float64, error) {
	var vs []float64
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil, fmt.Errorf("%s run %d has no metric %s", path, i+1, name)
		}
		vs = append(vs, m.Value)
	}
	return vs, nil
}

// spread is the distance between the first and third quartiles as a
// share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method).
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / median(vs)
}
