// Package campaigncli is the one command-line layer of the synchcount
// experiment subcommands. It holds the campaign distribution flags
// every campaign-driven subcommand exposes:
//
//	-shard I/K   run only shard I of a K-way split of the trial grid
//	-ndjson F    stream per-trial records as NDJSON to F ('-' = stdout)
//	-merge A,B   skip running; merge shard result files instead
//	             (.json buffered results or .ndjson record streams)
//	-memo F      persist the fast-forward trajectory memo across runs
//	             (broadcast-model subcommands only; see RegisterMemo)
//
// and the single flag-checking path they share: bounded numeric flags
// that reject out-of-range values at Parse time (AtLeast, InRange), one
// comma-list parser (List, Ints), and the compare grid flags
// (RegisterGrid) that `compare` and `resultdb compare-table` both use.
//
// A grid too big for one process runs as K processes with identical
// flags plus distinct -shard values, each writing its partial result
// with -json; a final -merge invocation reassembles them into output
// byte-identical to the unsharded run.
package campaigncli

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
)

// Options holds the parsed distribution flags.
type Options struct {
	stdout   io.Writer
	shard    string
	ndjson   string
	merge    string
	memoFile string

	memoOnce sync.Once
	memo     *harness.TrajectoryMemo
	memoErr  error
}

// Register installs -shard, -ndjson and -merge on fs. stdout is the
// subcommand's standard output: the human report and `-ndjson -` both
// go there.
func Register(fs *flag.FlagSet, stdout io.Writer) *Options {
	o := &Options{stdout: stdout}
	fs.StringVar(&o.shard, "shard", "",
		"run only shard I/K of the campaign's trials (e.g. 0/2); write each shard with -json and reassemble with -merge")
	fs.StringVar(&o.ndjson, "ndjson", "",
		"stream per-trial records as NDJSON to this file ('-' = stdout)")
	fs.StringVar(&o.merge, "merge", "",
		"skip running: merge these comma-separated shard result files (.json results or .ndjson record streams) and report/export the reassembled campaign")
	return o
}

// RegisterMemo installs -memo on fs. Only subcommands whose runs can
// fast-forward register it: a memo file from a pulling-model or
// OnRound-traced run would only ever be empty.
func (o *Options) RegisterMemo(fs *flag.FlagSet) {
	fs.StringVar(&o.memoFile, "memo", "",
		"persist the fast-forward trajectory memo to this file: confirmed cycles load before the run (when the file exists) and save back after, so repeat campaigns start warm")
}

// NDJSONRequested reports whether -ndjson was set. Command modes that
// bypass Run — and with it the NDJSON stream — use it to reject the
// flag instead of silently dropping the stream.
func (o *Options) NDJSONRequested() bool { return o.ndjson != "" }

// ApplySim wires the invocation's shared trajectory memo cache into one
// broadcast-model simulation config — the one call every campaign
// command makes per config it builds. algID identifies the algorithm
// build in memo keys; configs of different builds must pass distinct
// ids. Safe for concurrent use by per-trial config factories. A -memo
// load failure surfaces from Run (which checks before any trial
// executes), not here.
func (o *Options) ApplySim(cfg *sim.Config, algID string) {
	o.ensureMemo()
	cfg.Memo = o.memo
	cfg.MemoAlg = algID
}

// ensureMemo creates the invocation's shared trajectory memo once,
// loading the -memo file into it when one exists. The load error (if
// any) is retained for Memo and Run to surface.
func (o *Options) ensureMemo() {
	o.memoOnce.Do(func() {
		o.memo = harness.NewTrajectoryMemo(0)
		if o.memoFile == "" {
			return
		}
		if _, err := os.Stat(o.memoFile); errors.Is(err, os.ErrNotExist) {
			return // first run starts cold and saves the file after
		}
		if _, err := sim.LoadTrajectoryMemoFile(o.memoFile, o.memo); err != nil {
			o.memoErr = err
		}
	})
}

// Memo returns the invocation's shared trajectory memo, creating it —
// and loading the -memo file — on first use. Commands that build their
// own campaign-level memo wiring (compare's CompareSpec.Memo) call this
// so -memo covers them too.
func (o *Options) Memo() (*harness.TrajectoryMemo, error) {
	o.ensureMemo()
	return o.memo, o.memoErr
}

// MergeMode reports whether -merge was given, in which case Run merges
// instead of running; commands whose report needs a local run call
// MergeAndReport instead.
func (o *Options) MergeMode() bool { return o.merge != "" }

// Sharded reports whether -shard was given, in which case the result
// covers only part of the trial grid and per-trial printouts should be
// guarded.
func (o *Options) Sharded() bool { return o.shard != "" }

// HumanOut is where a command's human-readable report belongs: stderr
// when `-ndjson -` claims stdout for the machine-readable stream (so
// piping into an NDJSON consumer never sees summary lines), stdout
// otherwise.
func (o *Options) HumanOut() io.Writer {
	if o.ndjson == "-" {
		return os.Stderr
	}
	return o.stdout
}

// CheckShardExport rejects a sharded run that would discard its
// results: a shard's trial records exist only in its exports, so
// -shard without -ndjson or one of the command's export flags (paths,
// usually -json/-csv) runs for nothing.
func (o *Options) CheckShardExport(paths ...string) error {
	if o.shard == "" || o.ndjson != "" {
		return nil
	}
	for _, p := range paths {
		if p != "" {
			return nil
		}
	}
	return errors.New("-shard produces a partial result that exists only in its exports: write it with -json (reassembled later via -merge) or -ndjson")
}

// MergeAndReport merges the -merge shard results, prints the shared
// summary to the command's human output, and writes the requested
// exports — the whole merge-mode body shared by the campaign commands.
func (o *Options) MergeAndReport(jsonPath, csvPath string) error {
	result, err := o.Merge()
	if err != nil {
		return err
	}
	summary(o.HumanOut(), result)
	return o.WriteExports(result, jsonPath, csvPath)
}

// WriteExports writes the optional JSON/CSV exports of a result and
// announces each on the human output — the one place the commands'
// export-and-report sequence lives.
func (o *Options) WriteExports(res *harness.Result, jsonPath, csvPath string) error {
	out := o.HumanOut()
	if jsonPath != "" {
		if err := res.WriteJSONFile(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "json: wrote %s\n", jsonPath)
	}
	if csvPath != "" {
		if err := res.WriteCSVFile(csvPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "csv: wrote %s\n", csvPath)
	}
	return nil
}

// Merge loads the -merge shard result files and reassembles them. When
// -ndjson is also set, the merged campaign's NDJSON export is written
// too (in run mode the stream is written live instead).
func (o *Options) Merge() (*harness.Result, error) {
	if o.shard != "" {
		return nil, errors.New("-merge and -shard are mutually exclusive")
	}
	var parts []*harness.Result
	for _, path := range List(o.merge) {
		// A shard's trial records reassemble from either export format:
		// .ndjson streams read back through harness.ReadNDJSONFile, anything
		// else is a buffered shard Result JSON.
		var res *harness.Result
		var err error
		if strings.HasSuffix(path, ".ndjson") {
			res, err = harness.ReadNDJSONFile(path)
		} else {
			res, err = harness.ReadJSONFile(path)
		}
		if err != nil {
			return nil, err
		}
		parts = append(parts, res)
	}
	merged, err := harness.Merge(parts...)
	if err != nil {
		return nil, err
	}
	if o.ndjson != "" {
		if err := o.withNDJSON(func(sink harness.Sink) error {
			return merged.Replay(sink)
		}); err != nil {
			return nil, err
		}
	}
	return merged, nil
}

// Run executes the campaign honouring -shard and -ndjson: the full
// grid or just the pinned shard, with per-trial records streamed live
// to the NDJSON sink while an in-memory collector aggregates the
// returned result. Under -merge it runs nothing and returns the
// reassembled shard results instead.
func (o *Options) Run(ctx context.Context, c harness.Campaign) (*harness.Result, error) {
	if o.merge != "" {
		return o.Merge()
	}
	// Surface -memo problems before any trial runs (and before touching
	// any output file): a corrupt memo file must fail loudly, not
	// silently run cold.
	if _, err := o.Memo(); err != nil {
		return nil, err
	}
	// Resolve the shard slice before touching any output file: a bad
	// -shard value must error out without truncating an existing
	// -ndjson export.
	var spec *harness.ShardSpec
	if o.shard != "" {
		index, count, err := parseShard(o.shard)
		if err != nil {
			return nil, err
		}
		s, err := c.Shard(index, count)
		if err != nil {
			return nil, err
		}
		spec = &s
	}
	col := harness.NewCollector()
	stream := func(sinks ...harness.Sink) error {
		if spec != nil {
			return c.StreamShard(ctx, *spec, sinks...)
		}
		return c.Stream(ctx, sinks...)
	}
	var err error
	if o.ndjson == "" {
		err = stream(col)
	} else {
		err = o.withNDJSON(func(sink harness.Sink) error {
			return stream(col, sink)
		})
	}
	if err != nil {
		return nil, err
	}
	// Persist the cycles this run confirmed (plus whatever it loaded:
	// the memo is append-only) so the next invocation starts warm. The
	// write is atomic — a failure preserves the previous memo file.
	if o.memoFile != "" {
		if err := sim.SaveTrajectoryMemoFile(o.memoFile, o.memo); err != nil {
			return nil, fmt.Errorf("saving -memo: %w", err)
		}
	}
	return col.Result(), nil
}

// withNDJSON opens the -ndjson destination, runs fn with a sink on it,
// and flushes/closes, reporting every error.
func (o *Options) withNDJSON(fn func(harness.Sink) error) error {
	dst, closeDst := o.stdout, func() error { return nil }
	if o.ndjson != "-" {
		f, err := os.Create(o.ndjson)
		if err != nil {
			return err
		}
		dst, closeDst = f, f.Close
	}
	w := bufio.NewWriter(dst)
	return errors.Join(fn(harness.NDJSONSink(w)), w.Flush(), closeDst())
}

// parseShard parses "I/K" with 0 <= I < K.
func parseShard(s string) (index, count int, err error) {
	i, k, ok := strings.Cut(s, "/")
	if ok {
		index, err = strconv.Atoi(i)
		if err == nil {
			count, err = strconv.Atoi(k)
		}
	}
	if !ok || err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: want I/K, e.g. 0/2", s)
	}
	if count <= 0 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("bad -shard %q: want 0 <= I < K", s)
	}
	return index, count, nil
}

// summary prints a compact per-scenario overview of a (possibly
// partial or merged) campaign result — the shared report for merge
// mode, where the command's usual run-time context is absent.
func summary(w io.Writer, res *harness.Result) {
	fmt.Fprintf(w, "campaign    : %s (seed %d)\n", res.Campaign, res.Seed)
	for _, sc := range res.Scenarios {
		st := sc.Stats
		if st.Trials == 0 {
			fmt.Fprintf(w, "  %-28s no trials in this slice\n", sc.Name)
			continue
		}
		fmt.Fprintf(w, "  %-28s %d/%d stabilised, T mean %.1f / median %.1f / p95 %.1f / max %d\n",
			sc.Name, st.Stabilised, st.Trials, st.MeanTime, st.MedianTime, st.P95Time, st.MaxTime)
	}
}

// number is the value type of a bounded flag.
type number interface {
	int | int64 | float64 | time.Duration
}

// bounded is a numeric flag.Value that rejects values outside
// [min, max] (max only when capped) at Parse time. The flag package
// wraps its error with the flag's name.
type bounded[T number] struct {
	p        *T
	min, max T
	capped   bool
}

// AtLeast registers a numeric flag that Parse rejects below min.
func AtLeast[T number](fs *flag.FlagSet, name string, value, min T, usage string) *T {
	register(fs, &bounded[T]{p: &value, min: min}, name, usage)
	return &value
}

// InRange registers a numeric flag that Parse rejects outside
// [min, max].
func InRange[T number](fs *flag.FlagSet, name string, value, min, max T, usage string) *T {
	register(fs, &bounded[T]{p: &value, min: min, max: max, capped: true}, name, usage)
	return &value
}

// register adds a bounded flag to fs and installs the set's usage
// printer, which names bounded flags by their type.
func register[T number](fs *flag.FlagSet, b *bounded[T], name, usage string) {
	fs.Var(b, name, usage)
	fs.Usage = func() { printUsage(fs) }
}

// typeName is the help placeholder of a bounded flag, spelled as the
// flag package spells its own numeric flags.
func (b *bounded[T]) typeName() string {
	switch any(*new(T)).(type) {
	case float64:
		return "float"
	case time.Duration:
		return "duration"
	}
	return "int"
}

// printUsage writes the flag package's default usage message for fs,
// except that each bounded flag shows its type instead of "value", the
// only placeholder the package derives for a custom flag.Value.
func printUsage(fs *flag.FlagSet) {
	out := fs.Output()
	var defaults strings.Builder
	fs.SetOutput(&defaults)
	fs.PrintDefaults()
	fs.SetOutput(out)
	if fs.Name() == "" {
		fmt.Fprintln(out, "Usage:")
	} else {
		fmt.Fprintf(out, "Usage of %s:\n", fs.Name())
	}
	for _, line := range strings.SplitAfter(defaults.String(), "\n") {
		if name, ok := strings.CutSuffix(strings.TrimPrefix(line, "  -"), " value\n"); ok {
			if f := fs.Lookup(name); f != nil {
				if t, ok := f.Value.(interface{ typeName() string }); ok {
					line = "  -" + name + " " + t.typeName() + "\n"
				}
			}
		}
		fmt.Fprint(out, line)
	}
}

func (b *bounded[T]) String() string {
	if b.p == nil { // the flag package's zero-value probe
		return fmt.Sprint(T(0))
	}
	return fmt.Sprint(*b.p)
}

func (b *bounded[T]) Set(s string) error {
	var v T
	var err error
	switch p := any(&v).(type) {
	case *int:
		var n int64
		n, err = strconv.ParseInt(s, 0, strconv.IntSize)
		*p = int(n)
	case *int64:
		*p, err = strconv.ParseInt(s, 0, 64)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	}
	switch {
	case err != nil:
		return errors.New("parse error")
	case b.capped && (v < b.min || v > b.max):
		return fmt.Errorf("must be in %v..%v", b.min, b.max)
	case v < b.min:
		return fmt.Errorf("must be >= %v", b.min)
	}
	*b.p = v
	return nil
}

// List splits a comma-separated flag value into its trimmed, non-empty
// items.
func List(s string) []string {
	var items []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			items = append(items, tok)
		}
	}
	return items
}

// Ints parses the comma-separated integer list given to flag -name,
// each item at least min.
func Ints(name, s string, min int) ([]int, error) {
	var vals []int
	for _, tok := range List(s) {
		v, err := strconv.Atoi(tok)
		if err != nil || v < min {
			return nil, fmt.Errorf("bad -%s value %q: want comma-separated integers >= %d", name, tok, min)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// Grid holds the compare grid flags. `compare` and `resultdb
// compare-table` register them through RegisterGrid, so the store join
// always rebuilds exactly the grid the recorded run used.
type Grid struct {
	algs, fs, adversaries *string
	c, faults             *int
	seed                  *int64
}

// RegisterGrid installs -algs, -f, -c, -adversaries, -faults and -seed
// on fs.
func RegisterGrid(fs *flag.FlagSet) *Grid {
	return &Grid{
		algs:        fs.String("algs", "ecount,ecount-chain,corollary1", "comma-separated registry algorithms: "+strings.Join(registry.Names(), " | ")),
		fs:          fs.String("f", "", "comma-separated resiliences to build each algorithm at (empty = spec defaults)"),
		c:           AtLeast(fs, "c", 0, 0, "counter modulus (0 = per-spec default; randomised baselines need 2)"),
		adversaries: fs.String("adversaries", "silent,splitvote", "comma-separated Byzantine strategies"),
		faults:      AtLeast(fs, "faults", 0, 0, "Byzantine nodes injected per run (0 = each algorithm's declared resilience)"),
		seed:        fs.Int64("seed", 1, "campaign base seed (all algorithms face the identical trial-seed stream)"),
	}
}

// Spec returns the comparison the grid flags describe; the caller
// fills in the run-size fields (Trials, Rounds, Window, Workers).
func (g *Grid) Spec() (registry.CompareSpec, error) {
	fs, err := Ints("f", *g.fs, 0)
	return registry.CompareSpec{
		Algs:        List(*g.algs),
		Fs:          fs,
		C:           *g.c,
		Adversaries: List(*g.adversaries),
		Faults:      *g.faults,
		Seed:        *g.seed,
	}, err
}
