package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestNDJSONGoldenRoundTrip pins the read side of the NDJSON format to
// the checked-in golden files: the golden NDJSON stream must read back
// into a Result whose three exports are byte-identical to the other
// golden files — closing the loop the write-only streaming export left
// open.
func TestNDJSONGoldenRoundTrip(t *testing.T) {
	if *updateGolden {
		t.Skip("golden files are being rewritten")
	}
	for _, g := range []struct{ ndjson, json, csv string }{
		{"golden.ndjson", "golden.json", "golden.csv"},
		{"compare_golden.ndjson", "compare_golden.json", "compare_golden.csv"},
	} {
		t.Run(g.ndjson, func(t *testing.T) {
			res, err := ReadNDJSONFile(filepath.Join("testdata", g.ndjson))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range []struct {
				file  string
				write func(*bytes.Buffer) error
			}{
				{g.json, func(b *bytes.Buffer) error { return res.WriteJSON(b) }},
				{g.csv, func(b *bytes.Buffer) error { return res.WriteCSV(b) }},
				{g.ndjson, func(b *bytes.Buffer) error { return res.WriteNDJSON(b) }},
			} {
				var got bytes.Buffer
				if err := f.write(&got); err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(filepath.Join("testdata", f.file))
				if err != nil {
					t.Fatal(err)
				}
				mustEqual(t, "ndjson round trip via "+f.file, want, got.Bytes())
			}
		})
	}
}

// TestReadNDJSONShardDifferential locks the NDJSON reassembly path to
// the JSON merge path: for a K-way contiguous split of the
// differential campaign, (a) reading the shard streams' in-order
// concatenation and (b) reading each stream separately and merging
// must both reproduce the buffered unsharded exports byte for byte,
// and an out-of-order concatenation must reassemble identical
// per-scenario results.
func TestReadNDJSONShardDifferential(t *testing.T) {
	ctx := context.Background()
	ref, err := diffCampaign(1).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV, refND := exports(t, ref)

	for _, k := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c := diffCampaign(4)
			streams := make([]*bytes.Buffer, k)
			for i := 0; i < k; i++ {
				spec, err := c.Shard(i, k)
				if err != nil {
					t.Fatal(err)
				}
				streams[i] = &bytes.Buffer{}
				if err := c.StreamShard(ctx, spec, NDJSONSink(streams[i])); err != nil {
					t.Fatal(err)
				}
			}

			var concat bytes.Buffer
			for _, s := range streams {
				concat.Write(s.Bytes())
			}
			got, err := readNDJSON(bytes.NewReader(concat.Bytes()), true)
			if err != nil {
				t.Fatal(err)
			}
			j, cs, nd := exports(t, got)
			mustEqual(t, "concatenated-stream JSON", refJSON, j)
			mustEqual(t, "concatenated-stream CSV", refCSV, cs)
			mustEqual(t, "concatenated-stream NDJSON", refND, nd)

			parts := make([]*Result, k)
			for i, s := range streams {
				if parts[i], err = readNDJSON(bytes.NewReader(s.Bytes()), true); err != nil {
					t.Fatal(err)
				}
			}
			merged, err := Merge(parts...)
			if err != nil {
				t.Fatal(err)
			}
			j, cs, nd = exports(t, merged)
			mustEqual(t, "per-stream merge JSON", refJSON, j)
			mustEqual(t, "per-stream merge CSV", refCSV, cs)
			mustEqual(t, "per-stream merge NDJSON", refND, nd)

			// Out of order: same trials and statistics per scenario;
			// only the scenario block order may differ.
			var rev bytes.Buffer
			for i := k - 1; i >= 0; i-- {
				rev.Write(streams[i].Bytes())
			}
			got, err = readNDJSON(bytes.NewReader(rev.Bytes()), true)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Scenarios) != len(ref.Scenarios) {
				t.Fatalf("reversed concat holds %d scenarios, want %d", len(got.Scenarios), len(ref.Scenarios))
			}
			for _, want := range ref.Scenarios {
				if gotSc := got.Scenario(want.Name); gotSc == nil || !reflect.DeepEqual(*gotSc, want) {
					t.Fatalf("reversed concat scenario %q differs from the unsharded run", want.Name)
				}
			}
		})
	}
}

// TestReadNDJSONRejectsMalformed enumerates the ways a stream can be
// wrong; every one must fail loudly rather than fold bad records into
// statistics.
func TestReadNDJSONRejectsMalformed(t *testing.T) {
	rec := func(campaign string, cseed int64, scenario string, sseed int64, trial int) string {
		return fmt.Sprintf(`{"campaign":%q,"campaign_seed":%d,"scenario":%q,"scenario_seed":%d,"trial":%d,"seed":7,"stabilised":true,"stabilisation_time":3,"rounds_run":9,"violations":0,"messages_per_round":1,"bits_per_round":2,"max_pulls":0,"mean_pulls":0}`,
			campaign, cseed, scenario, sseed, trial)
	}
	ok := rec("camp", 1, "sc", 5, 0)
	cases := []struct {
		name  string
		input string
		want  string
	}{
		{"empty stream", "", "no trial records"},
		{"blank lines only", "\n\n  \n", "no trial records"},
		{"broken json", ok + "\n{not json}\n", "line 2: not a trial record"},
		{"unknown field", `{"campaign":"c","scenario":"s","trial":0,"seed":1,"surprise":true}` + "\n", "not a trial record"},
		{"trailing data", ok + ` {"campaign":"camp"}` + "\n", "trailing data"},
		{"not a record", `{"slices":[{"scenario":"x"}]}` + "\n", "not a trial record"},
		{"mixed campaigns", ok + "\n" + rec("other", 1, "sc", 5, 1) + "\n", "mixed-campaign"},
		{"mixed campaign seeds", ok + "\n" + rec("camp", 2, "sc", 5, 1) + "\n", "mixed-campaign"},
		{"scenario seed mismatch", ok + "\n" + rec("camp", 1, "sc", 6, 1) + "\n", `scenario "sc" base seed mismatch`},
		{"duplicate trial", ok + "\n" + rec("camp", 1, "sc", 5, 0) + "\n", "appears more than once"},
		{"oversized line", `{"campaign":"` + strings.Repeat("x", maxNDJSONLine) + "\n", "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readNDJSON(strings.NewReader(tc.input), true)
			if err == nil {
				t.Fatalf("accepted malformed stream %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestReadNDJSONToleratesBlankLines: blank separators between records
// (a natural artifact of concatenating files) are not errors.
func TestReadNDJSONToleratesBlankLines(t *testing.T) {
	stream := "\n" + `{"campaign":"c","campaign_seed":1,"scenario":"s","scenario_seed":2,"trial":0,"seed":3,"stabilised":false,"stabilisation_time":0,"rounds_run":4,"violations":0,"messages_per_round":0,"bits_per_round":0,"max_pulls":0,"mean_pulls":0}` + "\n\n"
	res, err := readNDJSON(strings.NewReader(stream), true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign != "c" || len(res.Scenarios) != 1 || len(res.Scenarios[0].Trials) != 1 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestCollectorRejectsForeignRecords pins Collector.Emit to Merge's
// provenance strictness: records of a different campaign or with an
// inconsistent scenario seed must be rejected, not silently folded.
func TestCollectorRejectsForeignRecords(t *testing.T) {
	base := TrialRecord{Campaign: "camp", CampaignSeed: 1, Scenario: "sc", ScenarioSeed: 5}
	col := NewCollector()
	if err := col.Emit(base); err != nil {
		t.Fatal(err)
	}

	foreign := base
	foreign.Campaign = "other"
	foreign.Trial.Trial = 1
	if err := col.Emit(foreign); err == nil || !strings.Contains(err.Error(), "belongs to campaign") {
		t.Fatalf("foreign campaign accepted (err=%v)", err)
	}
	wrongSeed := base
	wrongSeed.CampaignSeed = 99
	wrongSeed.Trial.Trial = 1
	if err := col.Emit(wrongSeed); err == nil || !strings.Contains(err.Error(), "belongs to campaign") {
		t.Fatalf("foreign campaign seed accepted (err=%v)", err)
	}
	wrongScenarioSeed := base
	wrongScenarioSeed.ScenarioSeed = 6
	wrongScenarioSeed.Trial.Trial = 1
	if err := col.Emit(wrongScenarioSeed); err == nil || !strings.Contains(err.Error(), "base seed mismatch") {
		t.Fatalf("scenario seed drift accepted (err=%v)", err)
	}

	// The collector is still usable after rejecting: consistent
	// records keep folding.
	next := base
	next.Trial.Trial = 1
	if err := col.Emit(next); err != nil {
		t.Fatal(err)
	}
	if res := col.Result(); res.Scenarios[0].Stats.Trials != 2 {
		t.Fatalf("collector lost records: %+v", res.Scenarios[0].Stats)
	}
}

// TestAtomicWriteFile is the regression test for the export
// truncation bug: a writer that fails mid-write must leave the
// previous file byte-identical (the old os.Create path had already
// truncated it), leave no temp litter, and a successful write must
// replace the content with 0644 permissions.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.json")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	err := AtomicWriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half-writ"); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want the writer's error back, got %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "precious" {
		t.Fatalf("failed write clobbered the file: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}

	if err := AtomicWriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "fresh")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "fresh" {
		t.Fatalf("successful write did not land: %q", got)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Fatalf("replaced file has mode %v, want 0644", perm)
	}
}

// TestWriteJSONFileIsAtomic drives the same property through a real
// export entry point.
func TestWriteJSONFileIsAtomic(t *testing.T) {
	res, err := goldenCampaign().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.json")
	if err := res.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A second export over the same path must go through the temp file
	// too: equal bytes after, and the read-back still parses.
	if err := res.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "re-export", want, got)
	if _, err := ReadJSONFile(path); err != nil {
		t.Fatal(err)
	}
}
