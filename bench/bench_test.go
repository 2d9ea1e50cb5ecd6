package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// specFile is the schema of BENCHMARK.json.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// shortRun runs one pass of a workload at test size.
func shortRun(t *testing.T, workload string, seed int64, trace bool) (*result, []string) {
	t.Helper()
	var text textLines
	res, err := run(options{workload: workload, seed: seed, seconds: 1, trace: trace,
		short: true, passes: 1, workRoot: t.TempDir()}, &text)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res, text.lines
}

// TestSpecMatchesCode pins BENCHMARK.json to the workloads and metrics
// the code reports, and keeps its bounds within (0, 0.25].
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code has %s", got, want)
	}
	var e2e, layer []metricDef
	maxBound, setupBound := 0.0, 0.0
	for _, m := range s.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for _, m := range s.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, code reports %v", e2e, endToEnd)
	}
	if fmt.Sprint(layer) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, code reports %v", layer, perLayer)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", s.Paths)
	}
}

// TestWorkloadsShort runs every workload at test size, untraced and
// traced, and checks that each reports exactly its metrics, with units,
// and no failed operation.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, text := shortRun(t, w, 1, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no metric %s", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s unit %q, want %q", w, d.name, m.Unit, d.unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %g, want > 0", w, d.name, m.Value)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w, trace, res.Correct, res.Failed, res.Attempted)
			}
			if !containsLine(text, "failed_frac 0 frac") {
				t.Errorf("%s trace=%v: no failed_frac 0 line in %q", w, trace, text)
			}
		}
	}
}

func containsLine(lines []string, prefix string) bool {
	for _, l := range lines {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

// TestDeterminism checks that two runs with one seed agree on every
// scheduling-independent outcome — trial outcomes and Σ rounds×n,
// recovery latencies and injected faults, ingest dedup counts and query
// results — while another seed changes them. Memo hit counts are not
// part of the digest: first-write-wins ordering varies with two
// workers.
func TestDeterminism(t *testing.T) {
	for _, w := range workloadNames() {
		a, _ := shortRun(t, w, 7, false)
		b, _ := shortRun(t, w, 7, false)
		c, _ := shortRun(t, w, 8, false)
		if a.digest == fnvOffset {
			t.Errorf("%s: the run folded no outcome into its digest", w)
		}
		if a.digest != b.digest || a.Attempted != b.Attempted {
			t.Errorf("%s: same seed, different outcomes (%x/%d vs %x/%d)", w, a.digest, a.Attempted, b.digest, b.Attempted)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 gave identical outcomes", w)
		}
	}
}

// TestFlagsFailLoudly checks that bad invocations exit non-zero before
// printing a result.
func TestFlagsFailLoudly(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "spans.json")
	for _, args := range [][]string{
		{},
		{"--workload", "nosuch"},
		{"--workload", "live-engine", "--seconds", "0"},
		{"--workload", "live-engine", "--seconds", "-3"},
		{"--workload", "live-engine", "--seconds", "ten"},
		{"--workload", "live-engine", "--seed", "x"},
		{"--workload", "live-engine", "--trace", "2"},
		{"--workload", "live-engine", "--trace-out", "spans.json"},
		{"--workload", "live-engine", "--trace", "1", "--trace-out", missing},
		{"--workload", "live-engine", "extra"},
		{"agree", "only-one.ndjson"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code == 0 || stdout.Len() > 0 {
			t.Errorf("%q: exit %d, stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
		if stderr.Len() == 0 {
			t.Errorf("%q: nothing on stderr", args)
		}
	}
}

// TestAgree checks the run-set comparison against the bounds in
// BENCHMARK.json.
func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs int, scale float64) string {
		var buf bytes.Buffer
		for i := 0; i < runs; i++ {
			res := result{Correct: true, Attempted: 10, Metrics: map[string]metric{}}
			for _, d := range endToEnd {
				res.Metrics[d.name] = metric{scale * (100 + float64(i)), d.unit}
			}
			line, _ := json.Marshal(res)
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base, same, moved, few := write("a", 5, 1), write("b", 6, 1.001), write("c", 5, 2), write("d", 4, 1)
	for _, c := range []struct {
		a, b string
		code int
	}{{base, same, 0}, {base, moved, 1}, {moved, base, 1}, {base, few, 2}} {
		var out, errOut bytes.Buffer
		if code := cli([]string{"agree", "-benchmark", spec, c.a, c.b}, &out, &errOut); code != c.code {
			t.Errorf("agree %s %s: exit %d, want %d\n%s%s", filepath.Base(c.a), filepath.Base(c.b), code, c.code, out.String(), errOut.String())
		}
	}
}

// TestSpread pins the quartile rule to Python's
// statistics.quantiles(values, n=4).
func TestSpread(t *testing.T) {
	// quantiles([1..10], n=4) = [2.75, 5.5, 8.25]; median 5.5.
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := spread(vs), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}
