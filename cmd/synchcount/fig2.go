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

// runFig2 is `synchcount fig2`: it regenerates the paper's Figure 2,
// the recursive construction A(4,1) → A(12,3) → A(36,7) built with
// k = 3 blocks per upper level. It prints the structural
// decomposition, injects the figure's fault pattern (an entirely faulty
// 4-node sub-block plus scattered faults, 7 in total), runs the 36-node
// network under the construction-aware saboteur from an adversarially
// staggered initial configuration, and reports the measured
// stabilisation time against the Theorem 1 bound. With -trials > 1 the
// runs execute as a parallel campaign and the measured distribution is
// reported. A trial that fails to stabilise would falsify Theorem 1: the
// subcommand then exports what it has and fails.
func runFig2(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fig2", flag.ContinueOnError)
	var (
		c        = fs.Int("c", 10, "counter modulus")
		seed     = fs.Int64("seed", 1, "campaign base seed (per-trial seeds are derived deterministically)")
		advName  = fs.String("adversary", "saboteur", "adversary (saboteur or a generic strategy)")
		trials   = campaigncli.AtLeast(fs, "trials", 1, 1, "independent runs (aggregated over derived seeds)")
		workers  = campaigncli.AtLeast(fs, "workers", 0, 0, "concurrent trials (0 = GOMAXPROCS)")
		jsonPath = fs.String("json", "", "write the campaign result as JSON to this file")
	)
	dist := campaigncli.Register(fs, stdout)
	dist.RegisterMemo(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	out := dist.HumanOut()

	if dist.MergeMode() {
		return dist.MergeAndReport(*jsonPath, "")
	}
	if err := dist.CheckShardExport(*jsonPath); err != nil {
		return err
	}

	plan := synchcount.Plan{
		Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}, {K: 3, F: 7}},
		C:      *c,
	}
	top, levels, stats, err := synchcount.FromPlan(plan)
	if err != nil {
		return err
	}

	fmt.Fprintln(out, "Figure 2 — recursive application of Theorem 1 (k = 3 blocks per upper level)")
	fmt.Fprintln(out)
	for i := len(levels) - 1; i >= 0; i-- {
		l := levels[i]
		indent := strings.Repeat("  ", len(levels)-1-i)
		fmt.Fprintf(out, "%sA(%d,%d): %d blocks of %d nodes, counts mod %d, overhead 3(F+2)(2m)^k = %d\n",
			indent, l.N(), l.F(), l.K(), l.N()/l.K(), l.C(), l.RoundOverhead())
	}
	fmt.Fprintf(out, "\npredicted: T <= %d rounds, %d state bits per node (exact |X| = %d)\n",
		stats.TimeBound, stats.StateBits, stats.StateSpace)

	// Fault pattern of the figure: one fully faulty 4-node sub-block
	// (nodes 4..7 — a faulty block at the lowest level), plus scattered
	// faults in the other 12-node blocks.
	faulty := []int{4, 5, 6, 7, 13, 22, 31}
	fmt.Fprintf(out, "faults (%d = F): %v — includes the fully faulty sub-block {4,5,6,7}\n\n", len(faulty), faulty)

	cfg := synchcount.SimConfig{
		Alg:       top,
		Faulty:    faulty,
		Seed:      *seed,
		MaxRounds: stats.TimeBound + 1024,
		Window:    128,
		StopEarly: true,
	}
	// The saboteur is snapshottable and the stack deterministic, so
	// eligible trials cycle-detect instead of simulating every round.
	dist.ApplySim(&cfg, fmt.Sprintf("figure2/c=%d", *c))
	if *advName == "saboteur" {
		cfg.Adv = synchcount.Saboteur(top)
	} else {
		cfg.Adv, err = synchcount.AdversaryByName(*advName)
		if err != nil {
			return err
		}
	}
	cfg.Init, err = top.WorstInit()
	if err != nil {
		return err
	}

	// Single runs and multi-trial campaigns share one code path, so the
	// same flags measure the same runs whether or not -json is present.
	result, err := dist.Run(context.Background(), synchcount.Campaign{
		Name:      "fig2",
		Seed:      *seed,
		Workers:   *workers,
		Scenarios: []synchcount.Scenario{synchcount.SimScenario("figure2", cfg, *trials)},
	})
	if err != nil {
		return err
	}
	st := result.Scenarios[0].Stats
	if dist.Sharded() {
		fmt.Fprintf(out, "shard    : ran %d of %d trials (merge the shard JSONs for campaign totals)\n",
			st.Trials, *trials)
	}
	if st.Stabilised < st.Trials {
		fmt.Fprintf(out, "%d/%d trials DID NOT STABILISE — this would falsify Theorem 1\n",
			st.Trials-st.Stabilised, st.Trials)
		// Export before failing: the trial seeds of the would-be
		// counterexample are exactly the data worth keeping.
		if err := dist.WriteExports(result, *jsonPath, ""); err != nil {
			return err
		}
		return fmt.Errorf("%d/%d trials did not stabilise within the Theorem 1 bound", st.Trials-st.Stabilised, st.Trials)
	}
	if trials := result.Scenarios[0].Trials; len(trials) == 1 {
		tr := trials[0]
		fmt.Fprintf(out, "measured : stabilised at round %d under %q (bound %d; headroom %.1fx)\n",
			tr.StabilisationTime, *advName, stats.TimeBound,
			float64(stats.TimeBound)/float64(max(tr.StabilisationTime, 1)))
	} else {
		fmt.Fprintf(out, "measured : %d trials under %q, T median %.0f / p95 %.0f / max %d (bound %d; headroom %.1fx)\n",
			st.Trials, *advName, st.MedianTime, st.P95Time, st.MaxTime, stats.TimeBound,
			float64(stats.TimeBound)/float64(max(st.MaxTime, 1)))
	}
	fmt.Fprintf(out, "network  : %d messages/round, %d bits/round\n", st.MessagesPerRound, st.BitsPerRound)
	return dist.WriteExports(result, *jsonPath, "")
}
