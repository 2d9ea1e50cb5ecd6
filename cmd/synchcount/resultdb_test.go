package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestResultdb closes the loop between the campaign exports and the
// results store, in-process: one compare grid runs live, then as three
// NDJSON shards ingested out of order (one twice, so dedup is
// exercised), and the store must list it, reproduce the live per-trial
// CSV through `query -out csv` and the live table through
// `compare-table`, byte for byte.
func TestResultdb(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	store := p("store")
	grid := strings.Fields("-algs ecount,theorem2 -f 1 -c 6 -seed 9")
	compare := append([]string{"compare", "-trials", "6"}, grid...)

	live := mustRun(t, append(compare, "-table", p("live.csv"), "-csv", p("live-trials.csv"))...)
	for i := 0; i < 3; i++ {
		mustRun(t, append(compare, "-shard", []string{"0/3", "1/3", "2/3"}[i], "-ndjson", p([]string{"s0", "s1", "s2"}[i]+".ndjson"))...)
	}

	out := mustRun(t, "resultdb", "ingest", "-db", store, p("s1.ndjson"), p("s0.ndjson"), p("s2.ndjson"))
	if !strings.Contains(out, "now holds 3 segments (+24 records, 0 duplicates skipped)") {
		t.Fatalf("unexpected ingest report:\n%s", out)
	}
	out = mustRun(t, "resultdb", "ingest", "-db", store, p("s0.ndjson"))
	if !strings.Contains(out, "all 8 records already stored") || !strings.Contains(out, "now holds 3 segments (+0 records") {
		t.Fatalf("re-ingest was not a no-op:\n%s", out)
	}

	out = mustRun(t, "resultdb", "ls", "-db", store)
	if !regexp.MustCompile(`(?m)^compare\s+9\s+4\s+24$`).MatchString(out) {
		t.Fatalf("ls does not list the compare campaign (seed 9, 4 scenarios, 24 trials):\n%s", out)
	}

	mustRun(t, "resultdb", "query", "-db", store, "-campaign", "compare", "-out", "csv", "-o", p("store-trials.csv"))
	if readFile(t, p("store-trials.csv")) != readFile(t, p("live-trials.csv")) {
		t.Error("query -out csv differs from the live run's -csv export")
	}

	fromStore := mustRun(t, append([]string{"resultdb", "compare-table", "-db", store, "-table", p("store.csv")}, grid...)...)
	if readFile(t, p("store.csv")) != readFile(t, p("live.csv")) {
		t.Error("compare-table CSV differs from the live run's -table export")
	}
	// The printed tables match too: everything between the header line
	// and the export announcements.
	table := func(report string) string {
		lines := strings.Split(report, "\n")
		var keep []string
		for _, l := range lines[1:] {
			if !strings.Contains(l, ": wrote ") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	if table(fromStore) != table(live) {
		t.Errorf("compare-table printed a different table:\n%s\nvs live:\n%s", fromStore, live)
	}
}

// TestResultdbTrajectory reads the repository's committed BENCH_*.json
// lineage: every artifact gets a column, and at least one benchmark
// has a row.
func TestResultdbTrajectory(t *testing.T) {
	root := filepath.Join("..", "..")
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH_*.json artifacts at the repository root (%v)", err)
	}
	out := mustRun(t, "resultdb", "trajectory", "-dir", root, "-metric", "ns/op")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("trajectory printed no benchmark rows:\n%s", out)
	}
	for _, path := range paths {
		pr := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_"), ".json")
		if !strings.Contains(lines[0], "PR "+pr+" ") {
			t.Errorf("trajectory header lacks a column for %s:\n%s", path, lines[0])
		}
	}
	if _, err := runCmd("resultdb", "trajectory", "-dir", t.TempDir()); err == nil {
		t.Error("trajectory over a directory with no artifacts succeeded")
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("test must run from cmd/synchcount: %v", err)
	}
}
