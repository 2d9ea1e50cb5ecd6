package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"github.com/synchcount/synchcount"
	"github.com/synchcount/synchcount/internal/campaigncli"
)

// measuredRow is one measured table row: the campaign scenario plus the
// static columns printed next to the campaign statistics.
type measuredRow struct {
	scenario  synchcount.Scenario
	label     string
	resil     string
	stateBits int
	det       string
	suffix    func(st synchcount.CampaignStats) string
}

// runTable1 is `synchcount table1`: it regenerates the paper's Table
// 1, the landscape of synchronous 2-counting algorithms, with the
// paper's analytical values side by side with values measured in this
// repository's simulator.
//
// Rows whose algorithms are implemented here are measured (stabilisation
// time over seeds and adversaries, exact state bits); rows we do not
// implement ([2]'s consensus stack, and the SAT-designed tables of [5]
// whose artefacts were never published) are printed from the paper's
// analytical claims and marked accordingly. The synthesiser contributes
// the exact model-checked result that the anonymous single-bit class
// contains no 1-resilient counters — the reason the "computer designed"
// rows need richer algorithm classes.
//
// Below the table, the scaling section prints the predicted resilience,
// time bound and state bits of the Theorem 2 and Theorem 3 plans: the
// paper's headline claim of stabilisation time linear in f.
//
// All measured rows run as one campaign on the experiment harness, so
// the table fills in parallel across rows and trials.
func runTable1(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("table1", flag.ContinueOnError)
	var (
		trials   = campaigncli.AtLeast(fs, "trials", 10, 1, "simulation trials per measured row")
		seed     = fs.Int64("seed", 1, "base seed")
		workers  = campaigncli.AtLeast(fs, "workers", 0, 0, "concurrent trials (0 = GOMAXPROCS)")
		jsonPath = fs.String("json", "", "write the campaign result as JSON to this file (required per shard when sharding)")
	)
	dist := campaigncli.Register(fs, stdout)
	dist.RegisterMemo(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	out := dist.HumanOut()
	if err := dist.CheckShardExport(*jsonPath); err != nil {
		return err
	}

	randomRows := []struct {
		label string
		n, f  int
	}{
		{"randomised [6,7] (n=4,f=1)", 4, 1},
		{"randomised [6,7] (n=7,f=2)", 7, 2},
		{"randomised [6,7] (n=10,f=3)", 10, 3},
		{"randomised [6,7] (n=13,f=4)", 13, 4},
	}
	var rows []measuredRow
	for _, r := range randomRows {
		row, err := randomRow(*trials, *seed, r.label, r.n, r.f)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	// Depth 1 is Corollary 1 at f=1: recursion.Corollary1(1, 2) plans
	// the same single k=4 level, so one row measures both.
	for _, levels := range []struct {
		label string
		depth int
	}{
		{"Corollary 1 = this work A(4,1)", 1},
		{"this work A(12,3)", 2},
		{"this work A(36,7) fig.2", 3},
	} {
		row, err := boostedRow(dist, *trials, *seed, levels.label, levels.depth)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}

	campaign := synchcount.Campaign{
		Name:    "table1",
		Seed:    *seed,
		Workers: *workers,
	}
	for _, r := range rows {
		campaign.Scenarios = append(campaign.Scenarios, r.scenario)
	}
	// The measured rows fill from a freshly run campaign, a shard of
	// one, or a merge of shard results — the table renders the same
	// way; sharded runs cover only their slice's trials.
	result, err := dist.Run(context.Background(), campaign)
	if err != nil {
		return err
	}
	if err := dist.WriteExports(result, *jsonPath, ""); err != nil {
		return err
	}
	if dist.Sharded() {
		fmt.Fprintf(out, "(shard slice only: measured columns cover this shard's trials; -merge reassembles)\n\n")
	}
	printRows := func(rows []measuredRow) error {
		for _, r := range rows {
			sc := result.Scenario(r.scenario.Name)
			if sc == nil {
				return fmt.Errorf("missing campaign scenario %q", r.scenario.Name)
			}
			st := sc.Stats
			time := "—" // no trial stabilised: nothing to average
			if st.Stabilised > 0 {
				time = fmt.Sprintf("mean %.0f max %d", st.MeanTime, st.MaxTime)
			}
			fmt.Fprintf(out, "%-34s %-12s %-22s %-12d %-6s  %s\n",
				r.label, r.resil, time, r.stateBits, r.det, r.suffix(st))
		}
		return nil
	}

	fmt.Fprintln(out, "Table 1 — synchronous 2-counting algorithms: paper vs measured")
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s\n", "algorithm", "resilience", "stabilisation time", "state bits", "det.")
	fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s\n", "---------", "----------", "------------------", "----------", "----")

	// The randomised rows come first, the paper's own constructions
	// last; the unmeasured rows sit in between.
	if err := printRows(rows[:len(randomRows)]); err != nil {
		return err
	}

	// Rows: computer-designed [5] — paper values; plus our exact negative
	// synthesis result for the anonymous class.
	fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s  (paper value; artefact unpublished)\n",
		"computer designed [5] (n>=4,f=1)", "f=1", "7", "2", "yes")
	fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s  (paper value; artefact unpublished)\n",
		"computer designed [5] (n>=6,f=1)", "f=1", "6", "1", "yes")
	fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s  (paper value; artefact unpublished)\n",
		"computer designed [5] (n>=6,f=1)", "f=1", "3", "2", "yes")
	found, err := synchcount.Synthesise(6, 1, synchcount.SynthOptions{Limit: 1})
	if err != nil {
		return err
	}
	if len(found) == 0 {
		fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s  (exact: exhaustively model-checked here)\n",
			"  anonymous 1-bit class (n=6,f=1)", "f=1", "no algorithm exists", "1", "-")
	} else {
		fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s  (synthesised here!)\n",
			"  anonymous 1-bit (n=6,f=1)", "f=1", fmt.Sprint(found[0].WorstTime), "1", "yes")
	}

	// Row: Dolev-Hoch [2] — paper values only (no published artefact; a
	// faithful reconstruction of the pipelined consensus stack is out of
	// scope).
	fmt.Fprintf(out, "%-34s %-12s %-22s %-12s %-6s  (paper value; not reimplemented)\n",
		"consensus stack [2]", "f<n/3", "O(f)", "O(f log f)", "yes")

	if err := printRows(rows[len(randomRows):]); err != nil {
		return err
	}

	fmt.Fprintln(out)
	return printScaling(out)
}

func randomRow(trials int, seed int64, label string, n, f int) (measuredRow, error) {
	a, err := synchcount.RandomizedAgree(n, f)
	if err != nil {
		return measuredRow{}, err
	}
	faults := make([]int, f)
	for i := range faults {
		faults[i] = (i*3 + 1) % n
	}
	cfg := synchcount.SimConfig{
		Alg:       a,
		Faulty:    faults,
		Adv:       synchcount.MustAdversary("splitvote"),
		Seed:      seed,
		MaxRounds: 1 << 21,
		StopEarly: true,
	}
	// Randomised rows never fast-forward (the engine gates on
	// determinism), so they take no memo.
	return measuredRow{
		scenario:  synchcount.SimScenario(label, cfg, trials),
		label:     label,
		resil:     fmt.Sprintf("f=%d", f),
		stateBits: synchcount.StateBits(a),
		det:       "no",
		suffix: func(st synchcount.CampaignStats) string {
			return fmt.Sprintf("(measured, %d/%d trials)", st.Stabilised, st.Trials)
		},
	}, nil
}

func boostedRow(dist *campaigncli.Options, trials int, seed int64, label string, levels int) (measuredRow, error) {
	stack := []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}, {K: 3, F: 7}}
	plan := synchcount.Plan{Levels: stack[:levels], C: 2}
	cnt, _, stats, err := synchcount.FromPlan(plan)
	if err != nil {
		return measuredRow{}, err
	}
	// Concentrate the fault budget on the first nodes: this breaks the
	// top level's leader-candidate block 0 (and occupies the low king
	// slots), which is what forces the construction to wait for a
	// Lemma 2 alignment window — the worst case the bound accounts for.
	faults := make([]int, cnt.F())
	for i := range faults {
		faults[i] = i
	}
	init, err := cnt.WorstInit()
	if err != nil {
		return measuredRow{}, err
	}
	cfg := synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    faults,
		Adv:       synchcount.Saboteur(cnt),
		Init:      init,
		Seed:      seed,
		MaxRounds: stats.TimeBound + 1024,
		Window:    128,
		StopEarly: true,
	}
	dist.ApplySim(&cfg, label)
	return measuredRow{
		scenario:  synchcount.SimScenario(label, cfg, trials),
		label:     label,
		resil:     fmt.Sprintf("f=%d", cnt.F()),
		stateBits: synchcount.StateBits(cnt),
		det:       "yes",
		suffix: func(synchcount.CampaignStats) string {
			return fmt.Sprintf("(measured vs bound %d; N=%d)", stats.TimeBound, cnt.N())
		},
	}, nil
}

// scalingRow is one plan of the scaling section and its predicted
// parameters.
type scalingRow struct {
	plan string
	st   synchcount.PlanStats
}

// scalingRows predicts the Theorem 2 series (k = 4 at depths 1–6,
// modulus 2) and the one Theorem 3 phase that fits in 64-bit integers.
func scalingRows() ([]scalingRow, error) {
	var rows []scalingRow
	add := func(label string, p synchcount.Plan, planErr error) error {
		if planErr != nil {
			return planErr
		}
		st, err := synchcount.PredictPlan(p)
		if err != nil {
			return err
		}
		rows = append(rows, scalingRow{label, st})
		return nil
	}
	for depth := 1; depth <= 6; depth++ {
		p, err := synchcount.PlanFixedK(4, depth, 2)
		if err := add(fmt.Sprintf("k=4 depth=%d", depth), p, err); err != nil {
			return nil, err
		}
	}
	p, err := synchcount.PlanVaryingK(1, 2)
	if err := add("Thm 3 P=1", p, err); err != nil {
		return nil, err
	}
	return rows, nil
}

// printScaling prints the scaling section: resilience, time bound and
// state bits of the fixed-k construction across recursion depths, then
// the Theorem 3 schedule, showing T = O(f) and S = O(log^2 f) growth.
func printScaling(out io.Writer) error {
	rows, err := scalingRows()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Theorems 2-3 scaling: resilience vs predicted time and space")
	fmt.Fprintf(out, "%-16s %-8s %-8s %-14s %-12s %s\n", "plan", "N", "F", "time bound", "bound/F", "Thm 1 bits")
	for _, r := range rows {
		fmt.Fprintf(out, "%-16s %-8d %-8d %-14d %-12.0f %d\n",
			r.plan, r.st.N, r.st.F, r.st.TimeBound, float64(r.st.TimeBound)/float64(r.st.F), r.st.StateBits)
	}
	// Two Theorem 3 phases already exceed 2^63 nodes: the schedule is
	// asymptotic by design, and PlanVaryingK(2, ·) reports the overflow.
	fmt.Fprintf(out, "%-16s %s\n", "Thm 3 P=2", "exceeds 64-bit integers (N > 2^63)")
	fmt.Fprintln(out, "(Theorem 3 phase p has k = 4*2^(P-p) blocks for 2k levels: P=1 is k=4 at depth 8)")
	fmt.Fprintln(out, "(bound/F never rising = linear-in-f stabilisation; bits growing ~log^2 f)")
	fmt.Fprintln(out, "(Thm 1 bits is Theorem 1's sum S(B) = S(A) + ceil(log2(C+1)) + 1 per level; the")
	fmt.Fprintln(out, "\"state bits\" column above is the packed ceil(log2 |X|), which can be smaller)")
	return nil
}
