package synchcount

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchMarker is one `<!-- bench: FILE KEY METRIC -->` marker in
// README.md.
var benchMarker = regexp.MustCompile(`<!-- bench: (\S+) (\S+) (\S+) -->`)

// markedFigure is the figure printed just before a marker: a number
// with optional thousands separators and decimals, optionally followed
// by a unit.
var markedFigure = regexp.MustCompile(`(\d[\d,]*(?:\.(\d+))?)\s*(?:x|µs|%)?\s*$`)

// benchArtifact is the part of a BENCH_<pr>.json trajectory artifact
// (cmd/benchjson) the README cites: benchmark metrics by name, and
// pair comparisons by case.
type benchArtifact struct {
	Benchmarks []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
	Comparisons []map[string]any `json:"comparisons"`
}

// lookup returns the artifact's value of metric for key: the metric of
// benchmark Benchmark<key>, or the field of the one comparison whose
// case is key.
func (a *benchArtifact) lookup(key, metric string) (float64, bool) {
	for _, b := range a.Benchmarks {
		if b.Name == "Benchmark"+key {
			v, ok := b.Metrics[metric]
			return v, ok
		}
	}
	var found []float64
	for _, c := range a.Comparisons {
		if c["case"] == key {
			if v, ok := c[metric].(float64); ok {
				found = append(found, v)
			}
		}
	}
	if len(found) != 1 {
		return 0, false
	}
	return found[0], true
}

// Every README figure tagged with a bench marker matches its artifact
// within the figure's printed rounding. ns/round figures are printed in
// µs. A marker naming a missing artifact, key or metric fails.
func TestReadmeBenchMarkers(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	artifacts := map[string]*benchArtifact{}
	load := func(file string) *benchArtifact {
		if a, ok := artifacts[file]; ok {
			return a
		}
		var a *benchArtifact
		if raw, err := os.ReadFile(file); err != nil {
			t.Errorf("marker names artifact %s: %v", file, err)
		} else if err := json.Unmarshal(raw, &a); err != nil {
			t.Errorf("artifact %s: %v", file, err)
			a = nil
		}
		artifacts[file] = a
		return a
	}
	markers := 0
	for ln, line := range strings.Split(string(readme), "\n") {
		prev := 0
		for _, m := range benchMarker.FindAllStringSubmatchIndex(line, -1) {
			markers++
			file, key, metric := line[m[2]:m[3]], line[m[4]:m[5]], line[m[6]:m[7]]
			where := "README.md:" + strconv.Itoa(ln+1) + " " + line[m[0]:m[1]]
			before := line[prev:m[0]]
			prev = m[1]
			fig := markedFigure.FindStringSubmatch(before)
			if fig == nil {
				t.Errorf("%s: no figure printed before the marker", where)
				continue
			}
			printed, err := strconv.ParseFloat(strings.ReplaceAll(fig[1], ",", ""), 64)
			if err != nil {
				t.Errorf("%s: figure %q: %v", where, fig[1], err)
				continue
			}
			a := load(file)
			if a == nil {
				continue
			}
			want, ok := a.lookup(key, metric)
			if !ok {
				t.Errorf("%s: %s has no %s metric for %s", where, file, metric, key)
				continue
			}
			if metric == "ns/round" {
				want /= 1000
			}
			tol := 0.5 * math.Pow(10, -float64(len(fig[2])))
			if math.Abs(printed-want) > tol*(1+1e-9) {
				t.Errorf("%s: README prints %s, artifact reads %g", where, fig[1], want)
			}
		}
	}
	if markers == 0 {
		t.Fatal("README.md has no bench markers")
	}
}
