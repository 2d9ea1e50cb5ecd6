package main

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/synchcount/synchcount/internal/campaigncli"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/resultdb"
)

// runResultdb is `synchcount resultdb`, the campaign results database:
// it ingests the campaign subcommands' exports (NDJSON shard streams, buffered JSON
// results) into an embedded append-only store and answers aggregate
// queries over everything ever recorded — so stabilisation statistics
// accumulate across runs, machines and PRs instead of evaporating with
// each process.
//
//	synchcount resultdb ingest -db results.db shard0.ndjson shard1.ndjson full.json
//	synchcount resultdb ls -db results.db
//	synchcount resultdb query -db results.db -algs ecount,theorem2 -f 7 -adversaries splitvote
//	synchcount resultdb query -db results.db -campaign compare -out csv -o trials.csv
//	synchcount resultdb query -db results.db -pool -scenario ecount/f=3/c=2/faults=3/silent
//	synchcount resultdb compare-table -db results.db -algs ecount,theorem2 -seed 1 -table cmp.csv
//	synchcount resultdb trajectory -metric ns/op Bitslice
//
// Ingestion deduplicates by (campaign, campaign seed, scenario,
// trial): re-ingesting a shard is a no-op, and a record that conflicts
// with the stored one under the same key fails the batch loudly. A
// query's statistics are exact — folded in the harness's canonical
// order — so `compare-table` reproduces the live `compare -table` CSV
// byte for byte from ingested shards; segments parse once per process
// and repeated queries aggregate from the in-memory cache.
//
// `trajectory` reads the repository's BENCH_<pr>.json lineage and
// prints each benchmark's metric across PRs — the performance history
// that pairs with the trial history in the store.
func runResultdb(args []string, out io.Writer) error {
	return dispatch("synchcount resultdb", []command{
		{"ingest", "ingest campaign exports (.ndjson streams, .json results) into a store", runIngest},
		{"ls", "list the recorded campaigns", runLs},
		{"query", "aggregate stored trials (filter by campaign, scenario or parsed axes)", runQuery},
		{"compare-table", "reproduce the compare suite's -table CSV from stored trials", runCompareTable},
		{"trajectory", "print benchmark history across the BENCH_<pr>.json lineage", runTrajectory},
	}, args, out)
}

// dbFlag installs the shared -db flag on a subcommand flag set.
func dbFlag(fs *flag.FlagSet) *string {
	return fs.String("db", "results.db", "store directory (created on first ingest)")
}

func runIngest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resultdb ingest", flag.ContinueOnError)
	db := dbFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	files := fs.Args()
	if len(files) == 0 {
		return errors.New("no input files (pass .ndjson streams or .json results)")
	}
	store, err := resultdb.Open(*db)
	if err != nil {
		return err
	}
	var added, dups int
	for _, path := range files {
		st, err := store.IngestFile(path)
		if err != nil {
			return fmt.Errorf("ingest %s: %w", path, err)
		}
		added += st.Added
		dups += st.Duplicates
		if st.Added == 0 {
			fmt.Fprintf(out, "ingest: %s: all %d records already stored\n", path, st.Records)
			continue
		}
		fmt.Fprintf(out, "ingest: %s: %d records -> segment %d (%d new, %d duplicate)\n",
			path, st.Records, st.Segment, st.Added, st.Duplicates)
	}
	fmt.Fprintf(out, "ingest: store %s now holds %d segments (+%d records, %d duplicates skipped)\n",
		store.Dir(), store.Segments(), added, dups)
	return nil
}

func runLs(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resultdb ls", flag.ContinueOnError)
	db := dbFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	store, err := resultdb.Open(*db)
	if err != nil {
		return err
	}
	infos, err := store.Campaigns()
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Fprintln(out, "store is empty")
		return nil
	}
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "CAMPAIGN\tSEED\tSCENARIOS\tTRIALS")
	for _, ci := range infos {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", ci.Campaign, ci.Seed, ci.Scenarios, ci.Trials)
	}
	return tw.Flush()
}

func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resultdb query", flag.ContinueOnError)
	var (
		db       = dbFlag(fs)
		campaign = fs.String("campaign", "", "campaign name filter")
		seedStr  = fs.String("campaign-seed", "", "campaign master seed filter")
		scenario = fs.String("scenario", "", "exact scenario name filter")
		algs     = fs.String("algs", "", "comma-separated algorithm filter (parsed from scenario names)")
		fsStr    = fs.String("f", "", "comma-separated resilience filter")
		cStr     = fs.String("c", "", "counter modulus filter")
		faults   = fs.String("faults", "", "injected-fault-count filter")
		advStr   = fs.String("adversaries", "", "comma-separated adversary filter")
		pool     = fs.Bool("pool", false, "pool same-named scenarios across campaigns into one group each")
		format   = fs.String("out", "table", "output format: table (aggregates), csv or ndjson (per-trial records, harness export schema)")
		outPath  = fs.String("o", "", "write output to this file instead of stdout")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	write, ok := map[string]func(io.Writer, []resultdb.Group) error{
		"table":  writeGroupTable,
		"csv":    writeGroupCSV,
		"ndjson": writeGroupNDJSON,
	}[*format]
	if !ok {
		return fmt.Errorf("bad -out %q: want table, csv or ndjson", *format)
	}

	q := resultdb.Query{
		Campaign:    *campaign,
		Scenario:    *scenario,
		Algs:        campaigncli.List(*algs),
		Adversaries: campaigncli.List(*advStr),
		Pool:        *pool,
	}
	var err error
	if q.CampaignSeed, err = parseOpt[int64](*seedStr, "-campaign-seed"); err != nil {
		return err
	}
	if q.Fs, err = campaigncli.Ints("f", *fsStr, 0); err != nil {
		return err
	}
	if q.C, err = parseOpt[int](*cStr, "-c"); err != nil {
		return err
	}
	if q.Faults, err = parseOpt[int](*faults, "-faults"); err != nil {
		return err
	}

	store, err := resultdb.Open(*db)
	if err != nil {
		return err
	}
	groups, err := store.Query(q)
	if err != nil {
		return err
	}

	if *outPath == "" {
		return write(out, groups)
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	return errors.Join(write(f, groups), f.Close())
}

// writeGroupTable renders the aggregate view, one row per group.
func writeGroupTable(w io.Writer, groups []resultdb.Group) error {
	if len(groups) == 0 {
		fmt.Fprintln(w, "no stored trials match the query")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "CAMPAIGN\tSEED\tSCENARIO\tTRIALS\tSTAB\tT MEAN\tT P50\tT P95\tT P99\tT MAX\tVIOL")
	for _, g := range groups {
		name, seed := g.Campaign, strconv.FormatInt(g.CampaignSeed, 10)
		if g.Campaigns > 1 {
			name, seed = fmt.Sprintf("(%d pooled)", g.Campaigns), "-"
		}
		st := g.Stats
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%d\t%d\n",
			name, seed, g.Scenario, st.Trials, st.Stabilised,
			st.MeanTime, st.MedianTime, st.P95Time, st.P99Time, st.MaxTime, st.Violations)
	}
	return tw.Flush()
}

// writeGroupCSV writes the groups' records in the harness per-trial
// CSV schema, so downstream dataframe tooling reads query output and
// campaign -csv exports interchangeably.
func writeGroupCSV(w io.Writer, groups []resultdb.Group) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(harness.CSVHeader); err != nil {
		return err
	}
	for _, g := range groups {
		for _, rec := range g.Records {
			if err := cw.Write(harness.CSVRow(rec.Campaign, rec.Scenario, rec.Trial)); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeGroupNDJSON streams the groups' records as NDJSON trial
// records — the same format the campaign commands' -ndjson flag
// writes, so query output is itself ingestable (and mergeable).
func writeGroupNDJSON(w io.Writer, groups []resultdb.Group) error {
	enc := json.NewEncoder(w)
	for _, g := range groups {
		for _, rec := range g.Records {
			if err := enc.Encode(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func runCompareTable(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resultdb compare-table", flag.ContinueOnError)
	db := dbFlag(fs)
	grid := campaigncli.RegisterGrid(fs)
	tablePath := fs.String("table", "", "write the comparison table as CSV to this file")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	// Rebuild the comparison's static cells exactly as `compare` does
	// (same grid flags): state bits, determinism and bounds come from
	// the algorithm builds, not the store, and a stored result that
	// does not belong to this comparison fails at the table join.
	spec, err := grid.Spec()
	if err != nil {
		return err
	}
	spec.Trials = 1 // cells only; trial counts come from the store
	spec.NoFastForward = true
	campaign, cells, err := spec.Campaign()
	if err != nil {
		return err
	}

	store, err := resultdb.Open(*db)
	if err != nil {
		return err
	}
	groups, err := store.Query(resultdb.Query{Campaign: campaign.Name, CampaignSeed: &spec.Seed})
	if err != nil {
		return err
	}
	byName := make(map[string]*resultdb.Group, len(groups))
	for i := range groups {
		byName[groups[i].Scenario] = &groups[i]
	}

	// Reassemble the campaign result in grid order — cells outer,
	// adversaries inner — so the table rows come out in the live run's
	// order regardless of the order shards were ingested in.
	res := &harness.Result{Campaign: campaign.Name, Seed: spec.Seed}
	for _, cell := range cells {
		for _, adv := range spec.Adversaries {
			name := cell.ScenarioName(adv)
			g, ok := byName[name]
			if !ok {
				return fmt.Errorf("store holds no trials for scenario %q of campaign %q (seed %d) — ingest the missing shards first",
					name, campaign.Name, spec.Seed)
			}
			sc := harness.ScenarioResult{
				Name:   name,
				Seed:   g.ScenarioSeed,
				Stats:  g.Stats,
				Trials: make([]harness.Trial, len(g.Records)),
			}
			for i, rec := range g.Records {
				sc.Trials[i] = rec.Trial
			}
			res.Scenarios = append(res.Scenarios, sc)
		}
	}

	rows, err := registry.Table(cells, spec.Adversaries, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compare     : %d algorithm builds x %d adversaries, from store %s (seed %d); per-row trial counts below\n",
		len(cells), len(spec.Adversaries), store.Dir(), spec.Seed)
	return writeTable(out, *tablePath, rows)
}

// benchArtifact mirrors the BENCH_<pr>.json trajectory schema
// (cmd/benchjson writes it).
type benchArtifact struct {
	Schema     string `json:"schema"`
	PR         int    `json:"pr"`
	Benchmarks []struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	} `json:"benchmarks"`
}

const benchSchema = "synchcount-bench-trajectory/v1"

func runTrajectory(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("resultdb trajectory", flag.ContinueOnError)
	var (
		dir    = fs.String("dir", ".", "directory holding the BENCH_<pr>.json lineage")
		metric = fs.String("metric", "ns/op", "benchmark metric to track (ns/op, ns/round, B/op, allocs/op)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var filter string
	switch fs.NArg() {
	case 0:
	case 1:
		filter = fs.Arg(0)
	default:
		return errors.New("at most one benchmark-name filter argument")
	}

	paths, err := filepath.Glob(filepath.Join(*dir, "BENCH_*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no BENCH_*.json artifacts in %s", *dir)
	}
	arts := make([]benchArtifact, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var art benchArtifact
		if err := json.Unmarshal(data, &art); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if art.Schema != benchSchema {
			return fmt.Errorf("%s: schema %q, want %q", path, art.Schema, benchSchema)
		}
		arts = append(arts, art)
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].PR < arts[j].PR })

	// One row per benchmark name, in first-appearance order across the
	// PR-sorted lineage; one column per PR, "-" where a PR did not run
	// the benchmark (lineages legitimately gain and lose benchmarks).
	type row struct {
		name   string
		values map[int]float64
	}
	var rows []*row
	index := make(map[string]*row)
	for _, art := range arts {
		for _, b := range art.Benchmarks {
			if filter != "" && !strings.Contains(b.Name, filter) {
				continue
			}
			v, ok := b.Metrics[*metric]
			if !ok {
				continue
			}
			r, seen := index[b.Name]
			if !seen {
				r = &row{name: b.Name, values: make(map[int]float64)}
				index[b.Name] = r
				rows = append(rows, r)
			}
			r.values[art.PR] = v
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("no benchmarks match (filter %q, metric %q)", filter, *metric)
	}

	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "BENCHMARK (%s)", *metric)
	for _, art := range arts {
		fmt.Fprintf(tw, "\tPR %d", art.PR)
	}
	fmt.Fprintln(tw, "\tFIRST/LAST")
	for _, r := range rows {
		fmt.Fprint(tw, r.name)
		var first, last float64
		haveFirst := false
		for _, art := range arts {
			v, ok := r.values[art.PR]
			if !ok {
				fmt.Fprint(tw, "\t-")
				continue
			}
			if !haveFirst {
				first, haveFirst = v, true
			}
			last = v
			fmt.Fprintf(tw, "\t%.4g", v)
		}
		// FIRST/LAST > 1 means the lineage got faster on a cost metric.
		if haveFirst && last != 0 {
			fmt.Fprintf(tw, "\t%.2fx\n", first/last)
		} else {
			fmt.Fprintln(tw, "\t-")
		}
	}
	return tw.Flush()
}

// parseOpt parses an optional integer flag value ("" = unset).
func parseOpt[T int | int64](s, name string) (*T, error) {
	if s == "" {
		return nil, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad %s value %q: %w", name, s, err)
	}
	t := T(v)
	return &t, nil
}
