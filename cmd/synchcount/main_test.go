package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/synchcount/synchcount/internal/live"
	"github.com/synchcount/synchcount/internal/registry"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runCmd runs one synchcount invocation in-process and returns its
// stdout.
func runCmd(args ...string) (string, error) {
	var buf bytes.Buffer
	err := dispatch("synchcount", commands, args, &buf)
	return buf.String(), err
}

func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, err := runCmd(args...)
	if err != nil {
		t.Fatalf("synchcount %s: %v", strings.Join(args, " "), err)
	}
	return out
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestGolden pins the stdout of the paper experiments byte for byte:
// Table 1, Figure 1, Figure 2 and the synthesis result. Regenerate with
// `go test ./cmd/synchcount -run TestGolden -update`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"table1", []string{"table1", "-trials", "2"}},
		{"fig1", []string{"fig1"}},
		{"fig2", []string{"fig2"}},
		{"synth", []string{"synth", "-q"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			got := mustRun(t, tc.args...)
			path := filepath.Join("testdata", tc.golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if want := readFile(t, path); got != want {
				t.Fatalf("synchcount %s stdout differs from %s:\n--- got\n%s--- want\n%s",
					strings.Join(tc.args, " "), path, got, want)
			}
		})
	}
}

// exportFlags are the output-file flags each subcommand accepts; the
// invalid-flag test passes all of them and asserts none is written.
var exportFlags = map[string][]string{
	"countsim":               {"-json", "-csv", "-ndjson", "-memo"},
	"compare":                {"-json", "-csv", "-ndjson", "-table", "-memo"},
	"table1":                 {"-json", "-ndjson", "-memo"},
	"fig1":                   {"-json", "-ndjson"},
	"fig2":                   {"-json", "-ndjson", "-memo"},
	"pullbench":              {"-json", "-csv", "-ndjson"},
	"liverun":                {"-ndjson", "-memprofile"},
	"resultdb compare-table": {"-db", "-table"},
	"resultdb query":         {"-db", "-o"},
}

// TestInvalidFlags runs every subcommand in-process with each invalid
// value of its checked flags: the run must fail with an error naming
// the flag, without panicking and without writing any output file.
func TestInvalidFlags(t *testing.T) {
	for _, tc := range []struct {
		cmd  string   // subcommand, as keyed in exportFlags
		args []string // the invalid flag settings
		flag string   // the flag the error must name
		bare bool     // pass no export flags (they conflict with args)
	}{
		{cmd: "countsim", args: []string{"-trials", "0"}, flag: "-trials"},
		{cmd: "countsim", args: []string{"-trials", "-5"}, flag: "-trials"},
		{cmd: "countsim", args: []string{"-workers", "-2"}, flag: "-workers"},
		{cmd: "countsim", args: []string{"-rounds", "-100"}, flag: "-rounds"},
		{cmd: "countsim", args: []string{"-faults", "1,x"}, flag: "-faults"},
		{cmd: "countsim", args: []string{"-faults", "-1"}, flag: "-faults"},
		{cmd: "compare", args: []string{"-trials", "0"}, flag: "-trials"},
		{cmd: "compare", args: []string{"-workers", "-4"}, flag: "-workers"},
		{cmd: "compare", args: []string{"-rounds", "-1"}, flag: "-rounds"},
		{cmd: "compare", args: []string{"-faults", "-3"}, flag: "-faults"},
		{cmd: "compare", args: []string{"-c", "-1"}, flag: "-c"},
		{cmd: "compare", args: []string{"-f", "1,-1"}, flag: "-f"},
		{cmd: "compare", args: []string{"-f", "x"}, flag: "-f"},
		{cmd: "table1", args: []string{"-trials", "-3"}, flag: "-trials"},
		{cmd: "table1", args: []string{"-trials", "0"}, flag: "-trials"},
		{cmd: "table1", args: []string{"-workers", "-1"}, flag: "-workers"},
		{cmd: "fig1", args: []string{"-width", "-5"}, flag: "-width"},
		{cmd: "fig1", args: []string{"-width", "0"}, flag: "-width"},
		{cmd: "fig1", args: []string{"-blocks", "9"}, flag: "-blocks"},
		{cmd: "fig1", args: []string{"-blocks", "1"}, flag: "-blocks"},
		{cmd: "fig1", args: []string{"-memo", "m.ndjson"}, flag: "-memo", bare: true},
		{cmd: "fig2", args: []string{"-trials", "0"}, flag: "-trials"},
		{cmd: "fig2", args: []string{"-trials", "-1"}, flag: "-trials"},
		{cmd: "fig2", args: []string{"-workers", "-2"}, flag: "-workers"},
		{cmd: "pullbench", args: []string{"-trials", "0"}, flag: "-trials"},
		{cmd: "pullbench", args: []string{"-workers", "-1"}, flag: "-workers"},
		{cmd: "pullbench", args: []string{"-scale-k", "0"}, flag: "-scale-k"},
		{cmd: "pullbench", args: []string{"-scale-k", "-3"}, flag: "-scale-k"},
		{cmd: "pullbench", args: []string{"-scale-c", "1"}, flag: "-scale-c"},
		{cmd: "pullbench", args: []string{"-budget-mb", "-1"}, flag: "-budget-mb"},
		{cmd: "pullbench", args: []string{"-scale", "-scale-n", "100,1"}, flag: "-scale-n", bare: true},
		{cmd: "pullbench", args: []string{"-scale", "-scale-n", "100,abc"}, flag: "-scale-n", bare: true},
		{cmd: "pullbench", args: []string{"-scale", "-scale-n", ","}, flag: "-scale-n", bare: true},
		{cmd: "pullbench", args: []string{"-memo", "m.ndjson"}, flag: "-memo", bare: true},
		{cmd: "liverun", args: []string{"-n", "1"}, flag: "-n"},
		{cmd: "liverun", args: []string{"-f", "-1"}, flag: "-f"},
		{cmd: "liverun", args: []string{"-c", "1"}, flag: "-c"},
		{cmd: "liverun", args: []string{"-bursts", "-1"}, flag: "-bursts"},
		{cmd: "liverun", args: []string{"-crashes", "-2"}, flag: "-crashes"},
		{cmd: "liverun", args: []string{"-rounds", "-10"}, flag: "-rounds"},
		{cmd: "liverun", args: []string{"-window", "-1"}, flag: "-window"},
		{cmd: "liverun", args: []string{"-timeout", "0s"}, flag: "-timeout"},
		{cmd: "liverun", args: []string{"-timeout", "-1s"}, flag: "-timeout"},
		{cmd: "liverun", args: []string{"-budget", "-1s"}, flag: "-budget"},
		{cmd: "liverun", args: []string{"-seeds", "0"}, flag: "-seeds"},
		{cmd: "liverun", args: []string{"-cpuprofile", "p.pprof", "-memprofile", "p.pprof"}, flag: "-cpuprofile", bare: true},
		{cmd: "synth", args: []string{"-limit", "-1"}, flag: "-limit"},
		{cmd: "resultdb compare-table", args: []string{"-faults", "-1"}, flag: "-faults"},
		{cmd: "resultdb compare-table", args: []string{"-c", "-2"}, flag: "-c"},
		{cmd: "resultdb compare-table", args: []string{"-f", "-1"}, flag: "-f"},
		{cmd: "resultdb query", args: []string{"-f", "-1"}, flag: "-f"},
		{cmd: "resultdb query", args: []string{"-c", "x"}, flag: "-c"},
		{cmd: "resultdb query", args: []string{"-out", "xml"}, flag: "-out"},
	} {
		name := tc.cmd + " " + strings.Join(tc.args, " ")
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			args := strings.Fields(tc.cmd)
			for _, a := range tc.args {
				if strings.HasSuffix(a, ".ndjson") || strings.HasSuffix(a, ".pprof") {
					a = filepath.Join(dir, a) // a would-be output file
				}
				args = append(args, a)
			}
			if !tc.bare {
				for _, f := range exportFlags[tc.cmd] {
					args = append(args, f, filepath.Join(dir, strings.TrimPrefix(f, "-")+".out"))
				}
			}
			_, err := runCmd(args...)
			if err == nil {
				t.Fatal("accepted, want an error")
			}
			if !regexp.MustCompile(`(^|\W)` + regexp.QuoteMeta(tc.flag) + `\b`).MatchString(err.Error()) {
				t.Errorf("error %q does not name %s", err, tc.flag)
			}
			if entries, _ := os.ReadDir(dir); len(entries) > 0 {
				t.Errorf("failed run left %d file(s) behind, first %s", len(entries), entries[0].Name())
			}
		})
	}
}

// TestDispatch pins the top-level command routing: help lists every
// subcommand, -h asks for help without failing the process, and
// unknown or missing commands are errors.
func TestDispatch(t *testing.T) {
	out := mustRun(t, "help")
	for _, c := range commands {
		if !strings.Contains(out, "\n  "+c.name+" ") {
			t.Errorf("help does not list %s:\n%s", c.name, out)
		}
	}
	if _, err := runCmd("fig1", "-h"); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("fig1 -h = %v, want flag.ErrHelp", err)
	}
	for _, args := range [][]string{nil, {"nosuch"}, {"resultdb"}, {"resultdb", "nosuch"}, {"fig1", "stray"}} {
		if _, err := runCmd(args...); err == nil {
			t.Errorf("synchcount %v accepted, want an error", args)
		}
	}
}

// TestCountsimShardMerge is the in-process shard-smoke: one campaign as
// two shards (one exported as JSON, one as NDJSON), merged, must equal
// the unsharded run's JSON and NDJSON byte for byte.
func TestCountsimShardMerge(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	args := strings.Fields("countsim -alg optimal -f 1 -c 4 -faults 2 -adversary splitvote -trials 8 -seed 7")
	out := mustRun(t, append(args, "-json", p("full.json"), "-ndjson", p("full.ndjson"))...)
	if !strings.Contains(out, "result      : 8/8 stabilised") {
		t.Fatalf("unexpected countsim report:\n%s", out)
	}
	mustRun(t, append(args, "-shard", "0/2", "-json", p("s0.json"))...)
	mustRun(t, append(args, "-shard", "1/2", "-ndjson", p("s1.ndjson"))...)
	mustRun(t, "countsim", "-merge", p("s0.json")+","+p("s1.ndjson"), "-json", p("merged.json"), "-ndjson", p("merged.ndjson"))
	for _, pair := range [][2]string{{"full.json", "merged.json"}, {"full.ndjson", "merged.ndjson"}} {
		if readFile(t, p(pair[0])) != readFile(t, p(pair[1])) {
			t.Errorf("%s and %s differ", pair[0], pair[1])
		}
	}
}

// TestPullbench runs a short pulling-model sweep and one scale cell.
func TestPullbench(t *testing.T) {
	out := mustRun(t, "pullbench", "-trials", "1", "-horizon", "300")
	if !strings.Contains(out, "pulling model on A(12,3)") || !strings.Contains(out, "\nfull ") {
		t.Fatalf("unexpected sweep report:\n%s", out)
	}
	out = mustRun(t, "pullbench", "-scale", "-scale-n", "1000", "-trials", "1")
	if !strings.Contains(out, "\n1000 ") {
		t.Fatalf("scale report lacks the n=1000 cell:\n%s", out)
	}
}

// TestLiverun soaks a small stack and checks the timeline replays
// identically and the verdict passes.
func TestLiverun(t *testing.T) {
	args := strings.Fields("liverun -n 8 -f 1 -c 4 -seed 2 -bursts 1 -timeout 5s")
	a := mustRun(t, append(args, "-timeline")...)
	if b := mustRun(t, append(args, "-timeline")...); a != b || a == "" {
		t.Fatalf("timeline does not replay:\n%s\nvs\n%s", a, b)
	}
	ndjson := filepath.Join(t.TempDir(), "soak.ndjson")
	out := mustRun(t, append(args, "-ndjson", ndjson)...)
	if !strings.Contains(out, "verdict     : PASS") {
		t.Fatalf("soak did not pass:\n%s", out)
	}
	if !strings.Contains(readFile(t, ndjson), `"campaign":"liverun"`) {
		t.Fatal("soak NDJSON lacks liverun records")
	}
}

// TestWriteNDJSONSweep pins the sweep export contract: one campaign and
// one campaign seed per stream (the base seed), the seed=<s> axis only
// in multi-seed sweeps, and the single-soak format unchanged from the
// pre-sweep layout so existing ingestion keeps working.
func TestWriteNDJSONSweep(t *testing.T) {
	a, err := registry.Build("ecount", registry.Params{N: 8, F: 1, C: 8})
	if err != nil {
		t.Fatal(err)
	}
	rep := &live.Report{Rounds: 10, Stabilised: true, FirstStabilised: 3}
	dir := t.TempDir()

	single := filepath.Join(dir, "single.ndjson")
	if err := writeNDJSON(single, "ecount", 40, a, []soakRun{{seed: 40, rep: rep}}); err != nil {
		t.Fatal(err)
	}
	if data := readFile(t, single); strings.Contains(data, "seed=") {
		t.Fatalf("single-soak export grew a seed axis: %s", data)
	}

	sweep := filepath.Join(dir, "sweep.ndjson")
	runs := []soakRun{{seed: 40, rep: rep}, {seed: 41, rep: rep}, {seed: 42, rep: rep}}
	if err := writeNDJSON(sweep, "ecount", 40, a, runs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(readFile(t, sweep)), "\n")
	if len(lines) != 3 {
		t.Fatalf("sweep of 3 fault-free soaks wrote %d records, want 3", len(lines))
	}
	for i, line := range lines {
		if !strings.Contains(line, `"campaign_seed":40`) {
			t.Fatalf("record %d does not carry the base campaign seed: %s", i, line)
		}
		want := []string{`/live/seed=40`, `/live/seed=41`, `/live/seed=42`}[i]
		if !strings.Contains(line, want) {
			t.Fatalf("record %d lacks scenario axis %q: %s", i, want, line)
		}
	}
}
