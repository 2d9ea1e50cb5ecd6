package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"

	"github.com/synchcount/synchcount"
	"github.com/synchcount/synchcount/internal/campaigncli"
)

// runCountsim is `synchcount countsim`: it runs synchronous-counting
// simulations and reports measured stabilisation times against the
// analytical bound. Multi-trial runs execute as a parallel campaign on
// the experiment harness.
//
//	synchcount countsim -alg optimal -f 1 -c 10 -faults 2 -adversary splitvote
//	synchcount countsim -alg figure2 -c 10 -faults 4,5,6,7,13,22,31 -adversary saboteur -worstinit
//	synchcount countsim -alg randagree -n 6 -f 1 -faults 0 -trials 20
//	synchcount countsim -alg optimal -faults 0 -adversary greedy -trials 100 -json results.json
//
// Large campaigns split across processes or machines and stream:
//
//	synchcount countsim -trials 100000 -ndjson -                 # constant-memory live stream
//	synchcount countsim -trials 100000 -shard 0/2 -json s0.json  # on machine A
//	synchcount countsim -trials 100000 -shard 1/2 -json s1.json  # on machine B
//	synchcount countsim -merge s0.json,s1.json -json full.json   # byte-identical to unsharded
func runCountsim(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("countsim", flag.ContinueOnError)
	var (
		algName   = fs.String("alg", "optimal", "algorithm: optimal | scalable | figure2 | randagree | randbiased")
		f         = fs.Int("f", 1, "resilience (optimal, randagree, randbiased)")
		n         = fs.Int("n", 4, "nodes (randagree, randbiased)")
		k         = fs.Int("k", 4, "blocks per level (scalable)")
		depth     = fs.Int("depth", 2, "recursion depth (scalable)")
		c         = fs.Int("c", 10, "counter modulus")
		faultsStr = fs.String("faults", "", "comma-separated Byzantine node indices")
		advName   = fs.String("adversary", "splitvote", "adversary: "+strings.Join(synchcount.Adversaries(), " | ")+" | saboteur | greedy")
		seed      = fs.Int64("seed", 1, "campaign base seed (per-trial seeds are derived deterministically)")
		rounds    = campaigncli.AtLeast(fs, "rounds", int64(0), 0, "max rounds (0 = bound + 512)")
		window    = fs.Uint64("window", 128, "confirmation window")
		worstInit = fs.Bool("worstinit", false, "start from the adversarially crafted initial configuration")
		full      = fs.Bool("full", false, "run every trial for exactly -rounds rounds instead of stopping at confirmed stabilisation: counts post-stabilisation counting violations, and long verification tails are where fast-forward (and a persisted -memo) conclude analytically")
		trials    = campaigncli.AtLeast(fs, "trials", 1, 1, "number of independent runs (aggregated)")
		workers   = campaigncli.AtLeast(fs, "workers", 0, 0, "concurrent trials (0 = GOMAXPROCS)")
		jsonPath  = fs.String("json", "", "write the campaign result as JSON to this file")
		csvPath   = fs.String("csv", "", "write per-trial results as CSV to this file")
	)
	dist := campaigncli.Register(fs, stdout)
	dist.RegisterMemo(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	out := dist.HumanOut()

	// Merge mode reassembles shard results written with -json; no
	// simulation runs, so the algorithm flags are ignored.
	if dist.MergeMode() {
		return dist.MergeAndReport(*jsonPath, *csvPath)
	}
	if err := dist.CheckShardExport(*jsonPath, *csvPath); err != nil {
		return err
	}

	a, cnt, err := buildAlgorithm(*algName, *n, *f, *k, *depth, *c)
	if err != nil {
		return err
	}
	faulty, err := campaigncli.Ints("faults", *faultsStr, 0)
	if err != nil {
		return err
	}

	var bound uint64
	if b, err := synchcount.StabilisationBound(a); err == nil {
		bound = b
	}
	maxRounds := uint64(*rounds)
	if maxRounds == 0 {
		maxRounds = bound + 512
		if bound == 0 {
			maxRounds = 1 << 20 // randomised baselines: generous default
		}
	}

	// The config is built freshly per trial: the greedy adversary keeps
	// per-round lookahead state and must not be shared across the
	// campaign's concurrent workers.
	buildConfig := func(int) (synchcount.SimConfig, error) {
		cfg := synchcount.SimConfig{
			Alg:       a,
			Faulty:    faulty,
			Seed:      *seed,
			MaxRounds: maxRounds,
			Window:    *window,
			StopEarly: !*full,
		}
		// Deterministic runs under snapshottable adversaries detect
		// their configuration cycle and conclude analytically, sharing
		// detected cycles across the campaign's trials.
		dist.ApplySim(&cfg, *algName)
		switch {
		case *advName == "saboteur":
			if cnt == nil {
				return cfg, fmt.Errorf("the saboteur needs a boosted counter (alg optimal|scalable|figure2)")
			}
			cfg.Adv = synchcount.Saboteur(cnt)
		case *advName == "greedy":
			if cnt == nil {
				return cfg, fmt.Errorf("the greedy attacker needs a boosted counter (alg optimal|scalable|figure2)")
			}
			adv, err := synchcount.Greedy(cnt, synchcount.Saboteur(cnt), 8)
			if err != nil {
				return cfg, err
			}
			cfg.Adv = adv
		default:
			adv, err := synchcount.AdversaryByName(*advName)
			if err != nil {
				return cfg, err
			}
			cfg.Adv = adv
		}
		if *worstInit {
			if cnt == nil {
				return cfg, fmt.Errorf("-worstinit needs a boosted counter (alg optimal|scalable|figure2)")
			}
			init, err := synchcount.WorstInit(cnt)
			if err != nil {
				return cfg, err
			}
			cfg.Init = init
		}
		return cfg, nil
	}

	fmt.Fprintf(out, "algorithm   : %s (n=%d f=%d c=%d, %d state bits, deterministic=%v)\n",
		*algName, a.N(), a.F(), a.C(), synchcount.StateBits(a), synchcount.IsDeterministic(a))
	if bound > 0 {
		fmt.Fprintf(out, "bound       : T <= %d rounds (Theorem 1 accounting)\n", bound)
	}
	fmt.Fprintf(out, "faults      : %v under %q adversary\n", faulty, *advName)

	// Single trials and full campaigns share one code path, so the same
	// flags always measure the same runs whether or not an export flag
	// is present.
	scenario := synchcount.SimScenarioFunc(*algName, *trials, buildConfig)
	scenario.Seed = seed
	result, err := dist.Run(context.Background(), synchcount.Campaign{
		Name:      "countsim",
		Seed:      *seed,
		Workers:   *workers,
		Scenarios: []synchcount.Scenario{scenario},
	})
	if err != nil {
		return err
	}
	recs := result.Scenarios[0].Trials
	if *trials == 1 && len(recs) == 1 {
		tr := recs[0]
		if !tr.Stabilised {
			fmt.Fprintf(out, "result      : DID NOT STABILISE within %d rounds\n", tr.RoundsRun)
		} else {
			fmt.Fprintf(out, "result      : stabilised at round %d (ran %d rounds, window %d)\n",
				tr.StabilisationTime, tr.RoundsRun, *window)
			fmt.Fprintf(out, "bits/round  : %d across the network\n", tr.BitsPerRound)
			if tr.Violations > 0 {
				fmt.Fprintf(out, "violations  : %d post-stabilisation rounds broke counting\n", tr.Violations)
			}
		}
	} else {
		st := result.Scenarios[0].Stats
		if dist.Sharded() {
			fmt.Fprintf(out, "shard       : ran %d of %d trials (merge the shard JSONs for campaign totals)\n",
				st.Trials, *trials)
		}
		fmt.Fprintf(out, "result      : %d/%d stabilised\n", st.Stabilised, st.Trials)
		if st.Stabilised > 0 {
			fmt.Fprintf(out, "T rounds    : min %d / mean %.1f / median %.1f / p95 %.1f / p99 %.1f / max %d\n",
				st.MinTime, st.MeanTime, st.MedianTime, st.P95Time, st.P99Time, st.MaxTime)
		}
		if st.Violations > 0 {
			fmt.Fprintf(out, "violations  : %d post-stabilisation rounds broke counting\n", st.Violations)
		}
	}
	return dist.WriteExports(result, *jsonPath, *csvPath)
}

func buildAlgorithm(name string, n, f, k, depth, c int) (synchcount.Algorithm, *synchcount.Counter, error) {
	switch name {
	case "optimal":
		cnt, err := synchcount.OptimalResilience(f, c)
		return cnt, cnt, err
	case "scalable":
		cnt, err := synchcount.Scalable(k, depth, c)
		return cnt, cnt, err
	case "figure2":
		cnt, err := synchcount.Figure2(c)
		return cnt, cnt, err
	case "randagree":
		a, err := synchcount.RandomizedAgree(n, f)
		return a, nil, err
	case "randbiased":
		a, err := synchcount.RandomizedBiased(n, f)
		return a, nil, err
	default:
		return nil, nil, fmt.Errorf("unknown algorithm %q", name)
	}
}
