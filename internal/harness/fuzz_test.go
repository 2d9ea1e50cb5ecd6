package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzShardSpec checks the shard-spec interchange format round-trips
// losslessly: any spec built from fuzzed fields survives JSON
// serialisation and ParseShardSpec unchanged, and parsing arbitrary
// bytes never panics.
func FuzzShardSpec(f *testing.F) {
	f.Add("countsim", int64(1), 0, 2, "optimal", 0, int64(77), 0, 5, "beta", 1, int64(-3), 2, 9)
	f.Add("", int64(-1), 3, 4, "α/β", 7, int64(1<<62), 100, 101, "", 0, int64(0), 0, 1)
	f.Fuzz(func(t *testing.T, campaign string, seed int64, shard, of int,
		scen0 string, idx0 int, seed0 int64, from0, to0 int,
		scen1 string, idx1 int, seed1 int64, from1, to1 int) {
		if !utf8.ValidString(campaign) || !utf8.ValidString(scen0) || !utf8.ValidString(scen1) {
			// encoding/json coerces invalid UTF-8 to replacement
			// runes, which is lossy by design.
			t.Skip()
		}
		spec := ShardSpec{
			Campaign: campaign,
			Seed:     seed,
			Shard:    shard,
			Of:       of,
			Slices: []ShardSlice{
				{Scenario: scen0, Index: idx0, Seed: seed0, From: from0, To: to0},
				{Scenario: scen1, Index: idx1, Seed: seed1, From: from1, To: to1},
			},
		}
		data, err := spec.JSON()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		parsed, err := ParseShardSpec(data)
		if err != nil {
			// Invalid specs (bad ranges, duplicate indices, shard out
			// of range) are rejected — but rejection must name the
			// problem, not mangle the data.
			if !strings.Contains(err.Error(), "shard spec") {
				t.Fatalf("rejection error %q does not identify the spec", err)
			}
			return
		}
		if !reflect.DeepEqual(spec, parsed) {
			t.Fatalf("round trip changed the spec\n before: %+v\n after:  %+v", spec, parsed)
		}
	})
}

// FuzzShardSpecParseArbitrary feeds ParseShardSpec raw bytes: it must
// reject or accept, never panic.
func FuzzShardSpecParseArbitrary(f *testing.F) {
	f.Add([]byte(`{"campaign":"x","seed":1,"shard":0,"of":1,"slices":[]}`))
	f.Add([]byte(`{"shard":-1}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseShardSpec(data)
		if err != nil {
			return
		}
		// Anything accepted must re-serialise and re-parse to itself.
		out, err := spec.JSON()
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %v", err)
		}
		again, err := ParseShardSpec(out)
		if err != nil {
			t.Fatalf("accepted spec failed to re-parse: %v", err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("accepted spec is not a fixed point\n before: %+v\n after:  %+v", spec, again)
		}
	})
}

// FuzzMergeResults builds adversarial partial shard results from
// fuzzed fields and checks Merge never panics, rejects mismatched
// campaign seeds with an error that says so, and — when it accepts —
// conserves trial records.
func FuzzMergeResults(f *testing.F) {
	f.Add("c", int64(1), int64(1), "s", "s", int64(5), int64(5), 0, 1, uint8(2))
	f.Add("c", int64(1), int64(2), "s", "t", int64(5), int64(6), 3, 3, uint8(0))
	f.Add("", int64(-9), int64(-9), "a", "a", int64(0), int64(0), -1, 7, uint8(255))
	f.Fuzz(func(t *testing.T, campaign string, seedA, seedB int64,
		scenA, scenB string, baseA, baseB int64, trialA, trialB int, extra uint8) {
		mk := func(seed int64, scen string, base int64, first, count int) *Result {
			r := &Result{Campaign: campaign, Seed: seed}
			sc := ScenarioResult{Name: scen, Seed: base}
			for i := 0; i < count; i++ {
				sc.Trials = append(sc.Trials, Trial{
					Trial: first + i,
					Seed:  base + int64(i),
					Observation: Observation{
						Stabilised:        i%2 == 0,
						StabilisationTime: uint64(first+i) % 97,
						RoundsRun:         uint64(i),
					},
				})
			}
			r.Scenarios = append(r.Scenarios, sc)
			return r
		}
		a := mk(seedA, scenA, baseA, trialA, int(extra%4))
		b := mk(seedB, scenB, baseB, trialB, int(extra%3))
		merged, err := Merge(a, b)
		if seedA != seedB {
			if err == nil {
				t.Fatal("mismatched campaign seeds were merged")
			}
			if !strings.Contains(err.Error(), "seed") {
				t.Fatalf("seed-mismatch rejection %q does not mention the seed", err)
			}
			return
		}
		if err != nil {
			return // overlapping trials or scenario-seed mismatch: rejection is correct
		}
		got := 0
		for _, sc := range merged.Scenarios {
			got += len(sc.Trials)
			if sc.Stats.Trials != len(sc.Trials) {
				t.Fatalf("scenario %q stats cover %d trials, result holds %d", sc.Name, sc.Stats.Trials, len(sc.Trials))
			}
		}
		want := 0
		for _, r := range []*Result{a, b} {
			for _, sc := range r.Scenarios {
				want += len(sc.Trials)
			}
		}
		if got != want {
			t.Fatalf("merge conserved %d of %d trial records", got, want)
		}
		// Merging must also be re-mergeable with nothing new: a merged
		// result merged with an empty sibling is a fixed point.
		again, err := Merge(merged)
		if err != nil {
			t.Fatalf("re-merge of a valid merge failed: %v", err)
		}
		if !reflect.DeepEqual(merged, again) {
			t.Fatal("re-merge of a valid merge changed it")
		}
	})
}

// FuzzReadNDJSON feeds readNDJSON arbitrary byte streams: it must
// reject or accept without panicking, and anything accepted must be a
// fixed point — re-exporting the Result as NDJSON and reading it back
// reproduces the Result exactly (the property shard reassembly
// depends on).
func FuzzReadNDJSON(f *testing.F) {
	if data, err := os.ReadFile(filepath.Join("testdata", "golden.ndjson")); err == nil {
		f.Add(data)
		// A truncated stream and a doubled stream are the classic
		// reassembly accidents.
		f.Add(data[:len(data)/2])
		f.Add(append(append([]byte(nil), data...), data...))
	}
	f.Add([]byte(`{"campaign":"c","campaign_seed":1,"scenario":"s","scenario_seed":2,"trial":0,"seed":3,"stabilised":true,"stabilisation_time":4,"rounds_run":5,"violations":0,"messages_per_round":0,"bits_per_round":0,"max_pulls":0,"mean_pulls":0}` + "\n"))
	f.Add([]byte("\n\nnot json\n"))
	f.Add([]byte(`{"campaign":"","scenario":""}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := readNDJSON(bytes.NewReader(data), true)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := res.WriteNDJSON(&buf); err != nil {
			// Accepted floats can be unencodable (NaN/Inf never come
			// from real streams, which this fuzz input is not).
			t.Skip()
		}
		again, err := readNDJSON(bytes.NewReader(buf.Bytes()), true)
		if err != nil {
			t.Fatalf("accepted stream failed to re-read after re-export: %v", err)
		}
		if !reflect.DeepEqual(res, again) {
			t.Fatalf("accepted stream is not a fixed point\n before: %+v\n after:  %+v", res, again)
		}
	})
}

// canonicalLine renders one TrialRecord line in NDJSONSink's form with
// the given raw JSON text for a few fields, for fuzz seeds.
func canonicalLine(campaign, scenario, trial, meanPulls string) string {
	return `{"campaign":` + campaign + `,"campaign_seed":1,"scenario":` + scenario + `,"scenario_seed":-2,"trial":` + trial +
		`,"seed":9223372036854775807,"stabilised":true,"stabilisation_time":4,"rounds_run":18446744073709551615,"violations":0,"messages_per_round":0,"bits_per_round":0,"max_pulls":0,"mean_pulls":` + meanPulls + `}`
}

// FuzzCanonicalTrialRecord holds readNDJSON's hand-written fast path to
// encoding/json: whenever decodeCanonicalRecord accepts a line,
// encoding/json decodes that line to the same record (bit for bit,
// -0 included), and over a whole stream readNDJSON returns the same
// Result, or the same error text, as the encoding/json-only reader.
func FuzzCanonicalTrialRecord(f *testing.F) {
	// The golden streams' first lines, not the whole files: the fuzzer
	// minimises every new input it finds, which is slow on large ones.
	for _, name := range []string{"golden.ndjson", "compare_golden.ndjson"} {
		if data, err := os.ReadFile(filepath.Join("testdata", name)); err == nil {
			lines := bytes.SplitAfterN(data, []byte("\n"), 3)
			f.Add(lines[0])
			f.Add(append(append([]byte(nil), lines[0]...), lines[1]...))
		}
	}
	for _, line := range []string{
		canonicalLine(`"c"`, `"s"`, `0`, `0`),
		canonicalLine(`"<>&"`, `"a/f=1"`, `3`, `0.5`),
		canonicalLine(`"\u003c\u003e\u0026"`, `"s"`, `3`, `0.5`),
		canonicalLine("\"\xff\"", `"s"`, `1`, `0`),
		canonicalLine(`"c"`, `"s"`, `1`, `1e-7`),
		canonicalLine(`"c"`, `"s"`, `1`, `1e21`),
		canonicalLine(`"c"`, `"s"`, `1`, `-0`),
		canonicalLine(`"c"`, `"s"`, `-0`, `1E+300`),
		canonicalLine(`"c"`, `"s"`, `01`, `0`),
		canonicalLine(`"c"`, `"s"`, `+1`, `0`),
		canonicalLine(`"c"`, `"s"`, `9223372036854775808`, `1e400`),
		canonicalLine(`"c"`, `"s"`, `1.0`, `.5`),
		strings.Replace(canonicalLine(`"c"`, `"s"`, `1`, `0`), `"campaign"`, `"Campaign"`, 1),
		strings.Replace(canonicalLine(`"c"`, `"s"`, `1`, `0`), `"trial":1,`, `"trial":1,"trial":2,`, 1),
		strings.Replace(canonicalLine(`"c"`, `"s"`, `1`, `0`), `"violations":0`, `"violations":-0`, 1),
		canonicalLine(`"c"`, `"s"`, `1`, `0`) + ` {}`,
	} {
		f.Add([]byte(line + "\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var campaign, scenario string
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			rec, ok := decodeCanonicalRecord(line, campaign, scenario)
			if !ok {
				if rec != (TrialRecord{}) {
					t.Fatalf("rejected line %q left a non-zero record %+v", line, rec)
				}
				continue
			}
			campaign, scenario = rec.Campaign, rec.Scenario
			var want TrialRecord
			dec := json.NewDecoder(bytes.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("fast path accepted %q, encoding/json rejects it: %v", line, err)
			}
			if dec.More() {
				t.Fatalf("fast path accepted %q, encoding/json finds trailing data", line)
			}
			if rec != want || math.Float64bits(rec.MeanPulls) != math.Float64bits(want.MeanPulls) {
				t.Fatalf("line %q\n fast: %+v\n json: %+v", line, rec, want)
			}
		}
		got, gotErr := readNDJSON(bytes.NewReader(data), true)
		want, wantErr := readNDJSON(bytes.NewReader(data), false)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("readNDJSON error %v, encoding/json-only reader %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("readNDJSON result differs from the encoding/json-only reader\n fast: %+v\n json: %+v", got, want)
		}
	})
}
