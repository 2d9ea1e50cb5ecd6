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

// runFig1 is `synchcount fig1`: it regenerates the paper's Figure 1.
// The leader pointers b[i,·] of stabilised blocks running
// τ(2m)^{i+1}-counters cycle at speeds differing by a factor 2m, so for
// every leader β there is eventually an interval where all blocks point
// at β simultaneously for at least τ rounds (Lemmas 1–2).
//
// The figure in the paper shows three blocks with base 2m = 6; we build
// an actual counter with k = 5 blocks (m = 3, 2m = 6), start its blocks
// from adversarially staggered counter values, and render each block's
// pointer timeline, marking the common windows.
func runFig1(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fig1", flag.ContinueOnError)
	var (
		width    = campaigncli.AtLeast(fs, "width", 160, 1, "timeline width in rounds")
		offset   = fs.Uint64("offset", 0, "first round to display")
		blocks   = campaigncli.InRange(fs, "blocks", 3, 2, 5, "number of block timelines to display (2..5)")
		jsonPath = fs.String("json", "", "write the campaign result as JSON to this file")
	)
	dist := campaigncli.Register(fs, stdout)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	out := dist.HumanOut()

	// Merge mode reassembles shard results; the pointer timelines are
	// OnRound side effects of a local run, so only the campaign record
	// is reported.
	if dist.MergeMode() {
		return dist.MergeAndReport(*jsonPath, "")
	}
	if err := dist.CheckShardExport(*jsonPath); err != nil {
		return err
	}

	// k = 5 blocks of one trivial node each: m = 3, 2m = 6 — the base-6
	// pointer wheels of the paper's figure. F = 2 < (0+1)·3 and F < 5/3
	// fails, so use F = 1: τ = 9, overhead 9·6^5 = 69984.
	base, err := synchcount.TrivialCounter(9 * 7776)
	if err != nil {
		return err
	}
	cnt, err := synchcount.Boost(base, synchcount.BoostParams{K: 5, F: 1, C: 6})
	if err != nil {
		return err
	}

	// Stagger the block counters adversarially and record each block's
	// decoded leader pointer per round. The trace runs as a one-trial
	// campaign scenario: the OnRound sink is per-run mutable state, so
	// the config is built inside the trial function. The recorder needs
	// every round, so the run never fast-forwards.
	init, err := cnt.WorstInit()
	if err != nil {
		return err
	}
	rounds := *offset + uint64(*width)
	timelines := make([][]uint64, cnt.K())
	for i := range timelines {
		timelines[i] = make([]uint64, 0, *width)
	}
	result, err := dist.Run(context.Background(), synchcount.Campaign{
		Name: "fig1",
		Seed: 1,
		Scenarios: []synchcount.Scenario{
			synchcount.SimScenarioFunc("leader-pointers", 1, func(int) (synchcount.SimConfig, error) {
				return synchcount.SimConfig{
					Alg:       cnt,
					Init:      init,
					MaxRounds: rounds,
					OnRound: func(round uint64, states []synchcount.State, _ []int) {
						if round < *offset {
							return
						}
						for u, st := range states {
							_, _, ptr := cnt.Leader(u, st)
							timelines[u] = append(timelines[u], ptr)
						}
					},
				}, nil
			}),
		},
	})
	if err != nil {
		return err
	}
	if err := dist.WriteExports(result, *jsonPath, ""); err != nil {
		return err
	}
	if len(result.Scenarios[0].Trials) == 0 {
		fmt.Fprintln(out, "this shard owns no trials of the fig1 campaign; nothing to draw")
		return nil
	}

	fmt.Fprintf(out, "Figure 1 — leader pointers b[i,·] of %d blocks (m = %d leaders, wheel base 2m = %d)\n",
		*blocks, cnt.M(), 2*cnt.M())
	fmt.Fprintf(out, "block i's pointer advances every c_{i-1} = τ(2m)^i rounds; τ = %d\n\n", cnt.Tau())

	for i := *blocks - 1; i >= 0; i-- {
		var b strings.Builder
		fmt.Fprintf(&b, "block %d  ", i)
		for _, ptr := range timelines[i] {
			b.WriteByte('0' + byte(ptr%10))
		}
		fmt.Fprintln(out, b.String())
	}

	// Mark rounds where all displayed blocks agree on the pointer.
	var marks strings.Builder
	marks.WriteString("common   ")
	common := 0
	for t := 0; t < len(timelines[0]); t++ {
		same := true
		for i := 1; i < *blocks; i++ {
			if timelines[i][t] != timelines[0][t] {
				same = false
				break
			}
		}
		if same {
			marks.WriteByte('^')
			common++
		} else {
			marks.WriteByte(' ')
		}
	}
	fmt.Fprintln(out, marks.String())
	fmt.Fprintf(out, "\n%d/%d displayed rounds have all blocks pointing at one leader (Lemma 2 windows)\n",
		common, *width)
	return nil
}
