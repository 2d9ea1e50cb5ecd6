package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/synchcount/synchcount/internal/campaigncli"
	"github.com/synchcount/synchcount/internal/registry"
)

// runCompare is `synchcount compare`: head-to-head campaigns between
// the counter stacks registered in internal/registry — the source
// paper's Theorem 1/2 recursions, the 1508.02535 silent-consensus
// stacks and the baselines — over the same (f, adversary, seed) grid,
// reporting per-algorithm stabilisation-time and state-bit columns.
//
//	synchcount compare -algs ecount,theorem2 -f 3 -trials 50
//	synchcount compare -algs ecount,ecount-chain,corollary1 -f 1 -adversaries silent,splitvote,equivocate
//	synchcount compare -algs randagree -c 2 -trials 200 -table cmp.csv
//
// Large comparisons split across processes or machines and stream,
// exactly like every other campaign subcommand:
//
//	synchcount compare -algs ecount,theorem2 -trials 1000 -shard 0/2 -json s0.json
//	synchcount compare -algs ecount,theorem2 -trials 1000 -shard 1/2 -json s1.json
//	synchcount compare -algs ecount,theorem2 -trials 1000 -merge s0.json,s1.json -json full.json
func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	grid := campaigncli.RegisterGrid(fs)
	var (
		trials    = campaigncli.AtLeast(fs, "trials", 10, 1, "independent runs per (algorithm, resilience, adversary) cell")
		rounds    = campaigncli.AtLeast(fs, "rounds", int64(0), 0, "max rounds per run (0 = declared bound + slack, or the spec time budget)")
		window    = fs.Uint64("window", 0, "stabilisation confirmation window (0 = simulator default)")
		workers   = campaigncli.AtLeast(fs, "workers", 0, 0, "concurrent trials (0 = GOMAXPROCS)")
		jsonPath  = fs.String("json", "", "write the campaign result as JSON to this file")
		csvPath   = fs.String("csv", "", "write per-trial results as CSV to this file")
		tablePath = fs.String("table", "", "write the per-algorithm comparison table as CSV to this file")
	)
	dist := campaigncli.Register(fs, stdout)
	dist.RegisterMemo(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	out := dist.HumanOut()

	spec, err := grid.Spec()
	if err != nil {
		return err
	}
	spec.Trials, spec.Rounds, spec.Window, spec.Workers = *trials, uint64(*rounds), *window, *workers
	// Eligible cells cycle-detect and share confirmed cycles through
	// the invocation's memo, which -memo loads from and saves back to.
	if spec.Memo, err = dist.Memo(); err != nil {
		return err
	}

	// The campaign is resolved even in merge mode: the static cells
	// (state bits, bounds) come from the builds, and merging results
	// from a different comparison must fail loudly at the table join.
	campaign, cells, err := spec.Campaign()
	if err != nil {
		return err
	}

	// -table is deliberately not accepted as the shard export: it holds
	// aggregates only, which -merge cannot reassemble — a shard's
	// per-trial records must land in -json/-csv/-ndjson.
	if err := dist.CheckShardExport(*jsonPath, *csvPath); err != nil {
		return err
	}
	result, err := dist.Run(context.Background(), campaign)
	// Under -merge the table joins this invocation's cell metadata with
	// the merged stats; scenario names carry alg/f/c/faults, and the
	// seed check closes the remaining labelling gap. A -rounds mismatch
	// between shard runs cannot be detected from the result — rerun the
	// shards rather than mixing horizons.
	if err == nil && result.Seed != spec.Seed {
		err = fmt.Errorf("merged result was produced with -seed %d, this invocation says -seed %d", result.Seed, spec.Seed)
	}
	if err != nil {
		return err
	}

	rows, err := registry.Table(cells, spec.Adversaries, result)
	if err != nil {
		return err
	}
	// The header's trial count comes from the flags, which a merged
	// result need not match (partial merges are legal): merge mode
	// defers to the per-row counts instead of mislabelling them.
	if dist.MergeMode() {
		fmt.Fprintf(out, "compare     : %d algorithm builds x %d adversaries, merged result (seed %d); per-row trial counts below\n",
			len(cells), len(spec.Adversaries), spec.Seed)
	} else {
		fmt.Fprintf(out, "compare     : %d algorithm builds x %d adversaries, %d trials each (seed %d)\n",
			len(cells), len(spec.Adversaries), *trials, spec.Seed)
	}
	if dist.Sharded() {
		fmt.Fprintf(out, "shard       : partial trial counts below; merge the shard JSONs for campaign totals\n")
	}
	if err := writeTable(out, *tablePath, rows); err != nil {
		return err
	}
	return dist.WriteExports(result, *jsonPath, *csvPath)
}

// writeTable prints the comparison table to out and, given a path,
// writes it there as CSV too — the report `compare` and `resultdb
// compare-table` share.
func writeTable(out io.Writer, path string, rows []registry.TableRow) error {
	if err := registry.FprintTable(out, rows); err != nil || path == "" {
		return err
	}
	tf, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := registry.WriteTableCSV(tf, rows); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "table: wrote %s\n", path)
	return nil
}
