package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/synchcount/synchcount"
	"github.com/synchcount/synchcount/internal/campaigncli"
)

// runPullbench is `synchcount pullbench`: it regenerates the Section 5
// experiments, per-node message complexity and reliability of
// the sampled pulling-model counters of Theorem 4 and the pseudo-random
// variant of Corollary 5, against the deterministic broadcast
// embedding.
//
// It sweeps the sample size M, reporting pulls/round, bits/round,
// stabilisation rate, and post-stabilisation violations (the empirical
// failure probability of Corollary 4). The whole sweep — every M row
// and every trial — runs as one parallel campaign on the experiment
// harness.
//
// With -scale it instead runs the large-n campaign of the sparse pull
// kernel: a fixed-wiring k-sample plurality counter (Gossip) at
// n ∈ {10^4, 10^5, 10^6} with 1% Byzantine nodes under the
// equivocating adversary, reporting stabilisation rate, mean
// stabilisation time, wall-clock ns/round and heap allocation per
// trial. Trials run serially (MaxConcurrent=1) so both measurements
// are honest; -budget-mb turns the allocation column into a hard gate,
// which is how CI pins the kernel to O(n) memory.
func runPullbench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pullbench", flag.ContinueOnError)
	var (
		trials   = campaigncli.AtLeast(fs, "trials", 5, 1, "runs per configuration")
		seed     = fs.Int64("seed", 1, "base seed")
		pseudo   = fs.Bool("pseudo", false, "use fixed wiring (Corollary 5) instead of fresh samples")
		horiz    = fs.Uint64("horizon", 0, "rounds per run (default bound + 2000)")
		workers  = campaigncli.AtLeast(fs, "workers", 0, 0, "concurrent trials (0 = GOMAXPROCS)")
		csvPath  = fs.String("csv", "", "write per-trial results as CSV to this file")
		jsonPath = fs.String("json", "", "write the campaign result as JSON to this file")

		scale    = fs.Bool("scale", false, "run the large-n sparse-kernel campaign instead of the M sweep")
		scaleN   = fs.String("scale-n", "10000,100000,1000000", "comma-separated network sizes for -scale")
		scaleK   = campaigncli.AtLeast(fs, "scale-k", 32, 1, "samples per round per node for -scale")
		scaleC   = campaigncli.AtLeast(fs, "scale-c", 8, 2, "counter modulus for -scale")
		budgetMB = campaigncli.AtLeast(fs, "budget-mb", 0.0, 0, "with -scale: fail if any cell allocates more than this many MB per trial (0 = report only)")
	)
	// The fast-forward engine does not ride pulling-model runs, so
	// there is no -memo here.
	dist := campaigncli.Register(fs, stdout)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	out := dist.HumanOut()

	if *scale {
		if dist.Sharded() || dist.MergeMode() || dist.NDJSONRequested() {
			return fmt.Errorf("-scale runs each cell as its own timed campaign; -shard/-merge/-ndjson apply to the M sweep only")
		}
		if *jsonPath != "" || *csvPath != "" {
			return fmt.Errorf("-scale has no -json/-csv export: its wall-clock and allocation columns are environment measurements, not campaign results")
		}
		return runScale(out, *scaleN, *scaleK, *scaleC, *trials, *seed, *horiz, *budgetMB)
	}

	if dist.MergeMode() {
		return dist.MergeAndReport(*jsonPath, *csvPath)
	}
	if err := dist.CheckShardExport(*jsonPath, *csvPath); err != nil {
		return err
	}

	// Test network: the two-level A(12,3) stack with two actual faults
	// (faulty fraction 1/6, comfortably below the 1/3 threshold so
	// Lemma 8/9 concentration applies at moderate M).
	plan := synchcount.Plan{
		Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}},
		C:      8,
	}
	top, _, stats, err := synchcount.FromPlan(plan)
	if err != nil {
		return err
	}
	faulty := []int{2, 9}
	horizon := *horiz
	if horizon == 0 {
		horizon = stats.TimeBound + 2000
	}

	pullCfg := func(a synchcount.PullAlgorithm) synchcount.PullConfig {
		return synchcount.PullConfig{
			Alg:       a,
			Faulty:    faulty,
			Adv:       synchcount.MustAdversary("equivocate"),
			Seed:      *seed,
			MaxRounds: horizon,
			Window:    128,
		}
	}

	sampleSizes := []int{6, 12, 24, 48}
	campaign := synchcount.Campaign{
		Name:    "pullbench",
		Seed:    *seed,
		Workers: *workers,
		Scenarios: []synchcount.Scenario{
			synchcount.PullScenario("full", pullCfg(synchcount.PullBroadcast(top)), *trials),
		},
	}
	for _, m := range sampleSizes {
		s, err := synchcount.Sampled(top, m, *pseudo, *seed*1000+int64(m))
		if err != nil {
			return err
		}
		campaign.Scenarios = append(campaign.Scenarios,
			synchcount.PullScenario(fmt.Sprintf("M=%d", m), pullCfg(s), *trials))
	}
	result, err := dist.Run(context.Background(), campaign)
	if err != nil {
		return err
	}

	mode := "fresh samples each round (Theorem 4)"
	if *pseudo {
		mode = "fixed wiring (Corollary 5, oblivious adversary)"
	}
	if dist.Sharded() {
		fmt.Fprintln(out, "(shard slice only: rows cover this shard's trials; -merge reassembles the sweep)")
	}
	fmt.Fprintf(out, "pulling model on A(%d,%d), faults %v, adversary equivocate, %s\n",
		top.N(), top.F(), faulty, mode)
	fmt.Fprintf(out, "deterministic broadcast embedding reference: %d pulls/round/node\n\n", top.N()-1)
	fmt.Fprintf(out, "%-10s %-14s %-12s %-14s %-16s %-14s\n",
		"M", "pulls/round", "bits/round", "stabilised", "mean T", "violations")

	// One row per scenario, in campaign order: "full", then "M=<m>"
	// labelled by its sample size.
	for _, sc := range result.Scenarios {
		st := sc.Stats
		fmt.Fprintf(out, "%-10s %-14d %-12d %-14s %-16s %-14d\n",
			strings.TrimPrefix(sc.Name, "M="), st.MaxPulls, st.BitsPerRound,
			fmt.Sprintf("%d/%d", st.Stabilised, st.Trials), meanTime(st, 0), st.Violations)
	}

	fmt.Fprintln(out)
	fmt.Fprintln(out, "arithmetic at scale (pulls/round/node, sampled vs broadcast, k = 4 blocks):")
	fmt.Fprintf(out, "%-10s %-12s %-14s %-14s\n", "N", "broadcast", "sampled M=24", "sampled M=48")
	for depth := 2; depth <= 6; depth++ {
		p, err := synchcount.PlanFixedK(4, depth, 8)
		if err != nil {
			return err
		}
		st, err := synchcount.PredictPlan(p)
		if err != nil {
			return err
		}
		n := st.N / 4 // block size at the top level
		pulls := func(m int) int { return (n - 1) + 4*m + m + 1 }
		fmt.Fprintf(out, "%-10d %-12d %-14d %-14d\n", st.N, st.N-1, pulls(24), pulls(48))
	}
	fmt.Fprintln(out, "(top-level sampling wins once N >> (k+1)M; the paper's full O(k·M·levels)")
	fmt.Fprintln(out, "budget additionally samples inside blocks at every recursion level)")

	fmt.Fprintln(out)
	return dist.WriteExports(result, *jsonPath, *csvPath)
}

// runScale runs one single-scenario campaign per network size and
// reports, for each cell, the harness statistics (pure functions of
// definition and seed) alongside two environment measurements taken
// outside the campaign: wall-clock ns per simulated round and heap
// bytes allocated per trial. Trials are serialised (MaxConcurrent=1)
// so neither measurement is diluted by parallelism.
func runScale(out io.Writer, scaleN string, k, c, trials int, seed int64, horiz uint64, budgetMB float64) error {
	sizes, err := campaigncli.Ints("scale-n", scaleN, 2)
	if err != nil {
		return err
	}
	if len(sizes) == 0 {
		return fmt.Errorf("-scale-n is empty")
	}
	horizon := horiz
	if horizon == 0 {
		// The gossip counter stabilises in a handful of rounds; the
		// detector window (2c+16 at the default modulus) dominates.
		horizon = 96
	}

	fmt.Fprintf(out, "sparse pull kernel at scale: gossip counter, k=%d samples/round, c=%d, 1%% Byzantine, adversary equivocate\n", k, c)
	fmt.Fprintf(out, "%d trials/cell, horizon %d rounds, trials serialised for honest timing\n\n", trials, horizon)
	fmt.Fprintf(out, "%-10s %-8s %-8s %-12s %-10s %-14s %-12s\n",
		"n", "k", "faults", "stabilised", "mean T", "ns/round", "MB/trial")

	var over []string
	for _, n := range sizes {
		f := n / 100
		if f < 1 {
			f = 1
		}
		faults := make([]int, f)
		for i := range faults {
			faults[i] = i * n / f
		}
		g, err := synchcount.NewGossip(n, c, k, seed*1000003+int64(n))
		if err != nil {
			return err
		}
		cell := fmt.Sprintf("n=%d", n)
		sc := synchcount.PullScenario(cell, synchcount.PullConfig{
			Alg:       g,
			Faulty:    faults,
			Adv:       synchcount.MustAdversary("equivocate"),
			Seed:      seed + int64(n),
			MaxRounds: horizon,
			StopEarly: true,
		}, trials)
		sc.MaxConcurrent = 1
		campaign := synchcount.Campaign{
			Name:      cell,
			Seed:      seed + int64(n),
			Scenarios: []synchcount.Scenario{sc},
		}

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		result, err := campaign.Run(context.Background())
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("cell %s: %w", cell, err)
		}

		st := result.Scenarios[0].Stats
		totalRounds := st.MeanRounds * float64(st.Trials)
		nsPerRound := 0.0
		if totalRounds > 0 {
			nsPerRound = float64(wall.Nanoseconds()) / totalRounds
		}
		mbPerTrial := float64(after.TotalAlloc-before.TotalAlloc) / float64(1<<20) / float64(trials)
		fmt.Fprintf(out, "%-10d %-8d %-8d %-12s %-10s %-14.0f %-12.1f\n",
			n, k, f, fmt.Sprintf("%d/%d", st.Stabilised, st.Trials),
			meanTime(st, 1), nsPerRound, mbPerTrial)
		if st.Stabilised != st.Trials {
			over = append(over, fmt.Sprintf("cell %s: only %d/%d trials stabilised", cell, st.Stabilised, st.Trials))
		}
		if budgetMB > 0 && mbPerTrial > budgetMB {
			over = append(over, fmt.Sprintf("cell %s: %.1f MB/trial exceeds budget %.1f MB", cell, mbPerTrial, budgetMB))
		}
	}

	fmt.Fprintln(out)
	fmt.Fprintln(out, "(ns/round is wall clock over simulated rounds; MB/trial is heap TotalAlloc")
	fmt.Fprintln(out, "delta over the cell divided by trials — a dense recv matrix would cost 8n² B)")
	if len(over) > 0 {
		return fmt.Errorf("scale gate failed:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}

// meanTime formats a scenario's mean stabilisation time with prec
// decimals, or "—" when no trial stabilised and there is nothing to
// average.
func meanTime(st synchcount.CampaignStats, prec int) string {
	if st.Stabilised == 0 {
		return "—"
	}
	return strconv.FormatFloat(st.MeanTime, 'f', prec, 64)
}
