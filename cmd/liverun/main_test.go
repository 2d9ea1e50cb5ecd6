package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/synchcount/synchcount/internal/live"
	"github.com/synchcount/synchcount/internal/registry"
)

func goodFlags() *liveFlags {
	return &liveFlags{
		algName: "ecount", n: 32, f: 3, c: 8, seed: 1, seeds: 1,
		faults: "crash,loss,partition",
		bursts: 3, burstLen: 8, timeout: time.Second,
	}
}

// TestValidateFlags pins the soak flag audit: a negative count or a
// non-positive deadline is rejected with the offending flag named —
// a silently clamped value would soak nothing and report success.
func TestValidateFlags(t *testing.T) {
	if err := validateFlags(goodFlags()); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		mut     func(*liveFlags)
		wantMsg string
	}{
		{"one node", func(fl *liveFlags) { fl.n = 1 }, "-n"},
		{"negative resilience", func(fl *liveFlags) { fl.f = -1 }, "-f"},
		{"modulus one", func(fl *liveFlags) { fl.c = 1 }, "-c"},
		{"negative bursts", func(fl *liveFlags) { fl.bursts = -1 }, "-bursts"},
		{"negative crashes", func(fl *liveFlags) { fl.crashes = -2 }, "-crashes"},
		{"negative rounds", func(fl *liveFlags) { fl.rounds = -10 }, "-rounds"},
		{"negative window", func(fl *liveFlags) { fl.window = -1 }, "-window"},
		{"zero timeout", func(fl *liveFlags) { fl.timeout = 0 }, "-timeout"},
		{"negative budget", func(fl *liveFlags) { fl.budget = -time.Second }, "-budget"},
		{"zero seeds", func(fl *liveFlags) { fl.seeds = 0 }, "-seeds"},
		{"profile collision", func(fl *liveFlags) {
			fl.cpuprofile, fl.memprofile = "p.pprof", "p.pprof"
		}, "-cpuprofile"},
	} {
		fl := goodFlags()
		tc.mut(fl)
		err := validateFlags(fl)
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantMsg) {
			t.Errorf("%s: error %q does not name the offending flag %q", tc.name, err, tc.wantMsg)
		}
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
	fl := goodFlags()
	fl.seed = 40
	rep := &live.Report{Rounds: 10, Stabilised: true, FirstStabilised: 3}
	dir := t.TempDir()

	single := filepath.Join(dir, "single.ndjson")
	if err := writeNDJSON(single, fl, a, []soakRun{{seed: 40, rep: rep}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "seed=") {
		t.Fatalf("single-soak export grew a seed axis: %s", data)
	}

	sweep := filepath.Join(dir, "sweep.ndjson")
	runs := []soakRun{{seed: 40, rep: rep}, {seed: 41, rep: rep}, {seed: 42, rep: rep}}
	if err := writeNDJSON(sweep, fl, a, runs); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(sweep)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
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
