package campaigncli

import (
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/sim"
)

func testCampaign() harness.Campaign {
	return harness.Campaign{
		Name: "cli",
		Seed: 5,
		Scenarios: []harness.Scenario{{
			Name:   "s",
			Trials: 4,
			Run: func(_ context.Context, _ int, seed int64) (harness.Observation, error) {
				return harness.Observation{Stabilised: true, StabilisationTime: uint64(seed % 10)}, nil
			},
		}},
	}
}

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in    string
		i, k  int
		valid bool
	}{
		{"0/2", 0, 2, true},
		{"1/2", 1, 2, true},
		{"7/100", 7, 100, true},
		{"2/2", 0, 0, false},
		{"-1/2", 0, 0, false},
		{"0/0", 0, 0, false},
		{"1", 0, 0, false},
		{"a/b", 0, 0, false},
		{"0/2/3", 0, 0, false},
		{"", 0, 0, false},
	} {
		i, k, err := parseShard(tc.in)
		if tc.valid != (err == nil) {
			t.Errorf("parseShard(%q) err = %v, want valid=%v", tc.in, err, tc.valid)
			continue
		}
		if tc.valid && (i != tc.i || k != tc.k) {
			t.Errorf("parseShard(%q) = %d/%d, want %d/%d", tc.in, i, k, tc.i, tc.k)
		}
	}
}

func TestCheckShardExport(t *testing.T) {
	if err := (&Options{shard: "0/2"}).CheckShardExport("", ""); err == nil {
		t.Error("sharded run with no exports was accepted")
	}
	for _, o := range []*Options{
		{shard: "0/2", ndjson: "x.ndjson"},
		{shard: "0/2"},
		{},
	} {
		paths := []string{"out.json"}
		if o.shard != "" && o.ndjson != "" {
			paths = nil
		}
		if err := o.CheckShardExport(paths...); err != nil {
			t.Errorf("%+v with exports %v rejected: %v", o, paths, err)
		}
	}
}

// TestBadShardDoesNotTruncateNDJSON pins the regression where an
// invalid -shard value truncated a pre-existing -ndjson export before
// the flag was validated.
func TestBadShardDoesNotTruncateNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.ndjson")
	const precious = "previously exported records\n"
	if err := os.WriteFile(path, []byte(precious), 0o644); err != nil {
		t.Fatal(err)
	}
	o := &Options{shard: "2/2", ndjson: path}
	if _, err := o.Run(context.Background(), testCampaign()); err == nil {
		t.Fatal("invalid shard accepted")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != precious {
		t.Fatalf("invalid -shard truncated the existing export: %q", got)
	}
}

// TestRunMatchesDirectCampaign checks the flag-driven path produces
// the same result and live NDJSON as the library API.
func TestRunMatchesDirectCampaign(t *testing.T) {
	want, err := testCampaign().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ndjson := filepath.Join(dir, "out.ndjson")
	o := &Options{ndjson: ndjson}
	got, err := o.Run(context.Background(), testCampaign())
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := filepath.Join(dir, "want.json")
	gotJSON := filepath.Join(dir, "got.json")
	wantND := filepath.Join(dir, "want.ndjson")
	if err := want.WriteJSONFile(wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteJSONFile(gotJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteNDJSONFile(wantND); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{wantJSON, gotJSON}, {wantND, ndjson}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s and %s differ", pair[0], pair[1])
		}
	}
}

// TestMergeModeRoundTrip drives shard → files → Merge through Options
// exactly as two processes plus a merge invocation would.
func TestMergeModeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	var paths string
	for i := 0; i < 2; i++ {
		o := &Options{shard: "0/2"}
		if i == 1 {
			o.shard = "1/2"
		}
		res, err := o.Run(context.Background(), testCampaign())
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, o.shard[:1]+".json")
		if err := res.WriteJSONFile(p); err != nil {
			t.Fatal(err)
		}
		if paths != "" {
			paths += ","
		}
		paths += p
	}
	merged, err := (&Options{merge: paths}).Merge()
	if err != nil {
		t.Fatal(err)
	}
	want, err := testCampaign().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	if err := want.WriteJSONFile(a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSONFile(b); err != nil {
		t.Fatal(err)
	}
	x, _ := os.ReadFile(a)
	y, _ := os.ReadFile(b)
	if string(x) != string(y) {
		t.Fatal("merge-mode result differs from the unsharded run")
	}
}

// TestMergeNDJSONShards pins the -merge NDJSON path: shard record
// streams written by -ndjson reassemble — alone or mixed with shard
// JSON results — into the unsharded campaign byte for byte.
func TestMergeNDJSONShards(t *testing.T) {
	dir := t.TempDir()
	nd0 := filepath.Join(dir, "s0.ndjson")
	nd1 := filepath.Join(dir, "s1.ndjson")
	js1 := filepath.Join(dir, "s1.json")
	for _, sh := range []struct{ shard, ndjson string }{{"0/2", nd0}, {"1/2", nd1}} {
		o := &Options{shard: sh.shard, ndjson: sh.ndjson}
		res, err := o.Run(context.Background(), testCampaign())
		if err != nil {
			t.Fatal(err)
		}
		if sh.shard == "1/2" {
			if err := res.WriteJSONFile(js1); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := testCampaign().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, merge string }{
		{"ndjson+ndjson", nd0 + "," + nd1},
		{"ndjson+json", nd0 + "," + js1},
	} {
		merged, err := (&Options{merge: tc.merge}).Merge()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		a, b := filepath.Join(dir, "want.json"), filepath.Join(dir, "got.json")
		if err := want.WriteJSONFile(a); err != nil {
			t.Fatal(err)
		}
		if err := merged.WriteJSONFile(b); err != nil {
			t.Fatal(err)
		}
		x, _ := os.ReadFile(a)
		y, _ := os.ReadFile(b)
		if string(x) != string(y) {
			t.Fatalf("%s: merged result differs from the unsharded run", tc.name)
		}
	}
}

// memoTestCampaign is a small fast-forward-eligible campaign wired
// through ApplySim, the way real commands build their scenarios.
func memoTestCampaign(t *testing.T, o *Options) harness.Campaign {
	t.Helper()
	a, err := ecount.New(16, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	faulty := []int{0, 5, 10}
	scen := sim.CampaignScenarioFunc("cell", 3, func(trial int) (sim.Config, error) {
		cfg := sim.Config{
			Alg:       a,
			Faulty:    faulty,
			Adv:       adversary.SplitVote{},
			MaxRounds: 1 << 14,
		}
		o.ApplySim(&cfg, "ecount/n=16/f=3/c=8")
		return cfg, nil
	}, nil)
	return harness.Campaign{Name: "memoed", Seed: 11, Scenarios: []harness.Scenario{scen}}
}

// TestMemoFlagPersistsAcrossRuns is the -memo end-to-end test: the
// first run writes the memo file, the second loads it, produces a
// byte-identical result and actually hits the loaded facts; a corrupt
// memo file fails the run before any trial executes.
func TestMemoFlagPersistsAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	memoPath := filepath.Join(dir, "memo.ndjson")
	ctx := context.Background()

	newOptions := func(args ...string) *Options {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		o := Register(fs, io.Discard)
		o.RegisterMemo(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return o
	}

	cold := newOptions("-memo", memoPath)
	res1, err := cold.Run(ctx, memoTestCampaign(t, cold))
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(memoPath)
	if err != nil {
		t.Fatalf("first run did not write the memo file: %v", err)
	}
	if info.Size() == 0 {
		t.Fatal("memo file is empty")
	}

	warm := newOptions("-memo", memoPath)
	res2, err := warm.Run(ctx, memoTestCampaign(t, warm))
	if err != nil {
		t.Fatal(err)
	}
	a, b := filepath.Join(dir, "r1.json"), filepath.Join(dir, "r2.json")
	if err := res1.WriteJSONFile(a); err != nil {
		t.Fatal(err)
	}
	if err := res2.WriteJSONFile(b); err != nil {
		t.Fatal(err)
	}
	x, _ := os.ReadFile(a)
	y, _ := os.ReadFile(b)
	if string(x) != string(y) {
		t.Fatal("warm-started campaign result differs from the cold run")
	}
	m, err := warm.Memo()
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() == 0 {
		t.Fatal("warm run loaded no memo entries")
	}
	if hits, _, _ := m.Stats(); hits == 0 {
		t.Error("warm run never hit the loaded memo")
	}

	// A corrupt memo file fails the run before any trial executes.
	if err := os.WriteFile(memoPath, []byte("not a memo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := newOptions("-memo", memoPath)
	if _, err := bad.Run(ctx, memoTestCampaign(t, bad)); err == nil {
		t.Fatal("corrupt memo file was accepted")
	}
}

// TestBoundedFlags pins the parse-time range check: an out-of-range or
// malformed value fails Parse with the flag named, and a valid one
// lands in the returned pointer.
func TestBoundedFlags(t *testing.T) {
	newFlags := func() (*flag.FlagSet, *int, *int64, *float64, *time.Duration) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs,
			InRange(fs, "blocks", 3, 2, 5, ""),
			AtLeast(fs, "rounds", int64(0), 0, ""),
			AtLeast(fs, "budget", 0.0, 0, ""),
			AtLeast(fs, "timeout", time.Second, 1, "")
	}
	fs, blocks, rounds, budget, timeout := newFlags()
	if *blocks != 3 || *rounds != 0 || *budget != 0 || *timeout != time.Second {
		t.Fatalf("defaults = %d %d %g %v", *blocks, *rounds, *budget, *timeout)
	}
	if err := fs.Parse([]string{"-blocks", "5", "-rounds", "0x10", "-budget", "1.5", "-timeout", "2ms"}); err != nil {
		t.Fatal(err)
	}
	if *blocks != 5 || *rounds != 16 || *budget != 1.5 || *timeout != 2*time.Millisecond {
		t.Fatalf("parsed = %d %d %g %v", *blocks, *rounds, *budget, *timeout)
	}
	for _, args := range [][]string{
		{"-blocks", "1"}, {"-blocks", "6"}, {"-blocks", "x"},
		{"-rounds", "-1"}, {"-budget", "-0.5"}, {"-timeout", "0s"}, {"-timeout", "-1s"},
	} {
		fs, _, _, _, _ := newFlags()
		err := fs.Parse(args)
		if err == nil || !strings.Contains(err.Error(), "flag "+args[0]) {
			t.Errorf("Parse(%v) = %v, want an error naming %s", args, err, args[0])
		}
	}
}

// TestBoundedFlagUsage pins the help text of bounded flags: each shows
// its type as placeholder, like the flag package's own numeric flags,
// unless its usage names one in back quotes, with its usage and
// non-zero default intact.
func TestBoundedFlagUsage(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var out strings.Builder
	fs.SetOutput(&out)
	InRange(fs, "blocks", 3, 2, 5, "blocks per row")
	AtLeast(fs, "rounds", int64(0), 0, "max rounds")
	AtLeast(fs, "budget", 0.5, 0, "memory budget")
	AtLeast(fs, "timeout", time.Second, 1, "round deadline")
	AtLeast(fs, "workers", 0, 0, "`N` concurrent trials")
	fs.String("name", "x", "a plain flag")
	if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("Parse(-h) = %v, want flag.ErrHelp", err)
	}
	want := `Usage of t:
  -blocks int
    	blocks per row (default 3)
  -budget float
    	memory budget (default 0.5)
  -name string
    	a plain flag (default "x")
  -rounds int
    	max rounds
  -timeout duration
    	round deadline (default 1s)
  -workers N
    	N concurrent trials
`
	if got := out.String(); got != want {
		t.Fatalf("usage text:\n%s\nwant:\n%s", got, want)
	}
}

func TestInts(t *testing.T) {
	if got := List(" a, b ,,c "); strings.Join(got, "|") != "a|b|c" {
		t.Fatalf("List = %q", got)
	}
	if got, err := Ints("f", "", 0); err != nil || len(got) != 0 {
		t.Fatalf("Ints(empty) = %v, %v", got, err)
	}
	if got, err := Ints("scale-n", " 100, 1000 ,", 2); err != nil || len(got) != 2 || got[1] != 1000 {
		t.Fatalf("Ints = %v, %v", got, err)
	}
	for _, bad := range []string{"1,x", "-1", "0,1"} {
		if _, err := Ints("f", bad, 1); err == nil || !strings.Contains(err.Error(), "-f") {
			t.Errorf("Ints(%q) = %v, want an error naming -f", bad, err)
		}
	}
}
