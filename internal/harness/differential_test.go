package harness

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
)

// diffCampaign is a grid whose observations derive purely from the
// trial seed, with uneven scenario sizes so shard boundaries fall both
// inside and between scenarios. MeanPulls exercises float formatting in
// every export path.
func diffCampaign(workers int) Campaign {
	scen := func(name string, trials int) Scenario {
		return Scenario{
			Name:   name,
			Trials: trials,
			Run: func(_ context.Context, trial int, seed int64) (Observation, error) {
				return Observation{
					Stabilised:        seed%5 != 0,
					StabilisationTime: uint64(seed % 977),
					RoundsRun:         uint64(seed%977) + 32,
					Violations:        uint64(trial % 3),
					MessagesPerRound:  uint64(seed % 89),
					BitsPerRound:      uint64(seed % 1021),
					MaxPulls:          uint64(seed % 13),
					MeanPulls:         float64(seed%1000) / 7,
				}, nil
			},
		}
	}
	return Campaign{
		Name:    "differential",
		Seed:    20260728,
		Workers: workers,
		Scenarios: []Scenario{
			scen("alpha", 23),
			scen("beta", 1),
			scen("gamma", 8),
			scen("delta", 17),
		},
	}
}

// exports renders a result's three export formats.
func exports(t *testing.T, res *Result) (jsonB, csvB, ndjsonB []byte) {
	t.Helper()
	var j, c, n bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteNDJSON(&n); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes(), n.Bytes()
}

func mustEqual(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		t.Fatalf("%s differs\n--- want ---\n%s\n--- got ---\n%s", label, want, got)
	}
}

// TestDifferentialStreamingShardingBuffered is the lockdown test for
// the streaming + sharding engine: for one fixed campaign seed, the
// buffered run, the streaming-sink run, and every K-way shard split
// re-merged must produce byte-identical JSON, CSV and NDJSON output —
// at worker counts 1, 4 and GOMAXPROCS.
func TestDifferentialStreamingShardingBuffered(t *testing.T) {
	ctx := context.Background()
	ref, err := diffCampaign(1).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantCSV, wantNDJSON := exports(t, ref)

	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Run("buffered", func(t *testing.T) {
				res, err := diffCampaign(workers).Run(ctx)
				if err != nil {
					t.Fatal(err)
				}
				j, c, n := exports(t, res)
				mustEqual(t, "JSON", wantJSON, j)
				mustEqual(t, "CSV", wantCSV, c)
				mustEqual(t, "NDJSON", wantNDJSON, n)
			})

			t.Run("streamed", func(t *testing.T) {
				col := NewCollector()
				var live bytes.Buffer
				if err := diffCampaign(workers).Stream(ctx, col, NDJSONSink(&live)); err != nil {
					t.Fatal(err)
				}
				j, c, n := exports(t, col.Result())
				mustEqual(t, "JSON", wantJSON, j)
				mustEqual(t, "CSV", wantCSV, c)
				mustEqual(t, "NDJSON", wantNDJSON, n)
				mustEqual(t, "live NDJSON stream", wantNDJSON, live.Bytes())
			})

			for _, k := range []int{2, 3, 7} {
				t.Run(fmt.Sprintf("sharded-k=%d", k), func(t *testing.T) {
					var parts []*Result
					var concat bytes.Buffer
					for i := 0; i < k; i++ {
						spec, err := diffCampaign(workers).Shard(i, k)
						if err != nil {
							t.Fatal(err)
						}
						// Round-trip the spec through its JSON
						// serialisation, as a cross-process
						// orchestrator would.
						data, err := spec.JSON()
						if err != nil {
							t.Fatal(err)
						}
						spec, err = ParseShardSpec(data)
						if err != nil {
							t.Fatal(err)
						}
						col := NewCollector()
						if err := diffCampaign(workers).StreamShard(ctx, spec, col, NDJSONSink(&concat)); err != nil {
							t.Fatal(err)
						}
						parts = append(parts, col.Result())
					}
					merged, err := Merge(parts...)
					if err != nil {
						t.Fatal(err)
					}
					j, c, n := exports(t, merged)
					mustEqual(t, "JSON", wantJSON, j)
					mustEqual(t, "CSV", wantCSV, c)
					mustEqual(t, "NDJSON", wantNDJSON, n)
					mustEqual(t, "concatenated shard NDJSON streams", wantNDJSON, concat.Bytes())
				})
			}
		})
	}
}

// TestMergeSurvivesFileRoundTrip checks the cross-process path end to
// end: shard results serialised with WriteJSONFile, read back with
// ReadJSONFile, and merged are byte-identical to the unsharded run —
// merging results that never left memory is the easy case.
func TestMergeSurvivesFileRoundTrip(t *testing.T) {
	ctx := context.Background()
	ref, err := diffCampaign(2).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _, wantNDJSON := exports(t, ref)

	dir := t.TempDir()
	var parts []*Result
	for i := 0; i < 3; i++ {
		spec, err := diffCampaign(2).Shard(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := diffCampaign(2).RunShard(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("%s/shard%d.json", dir, i)
		if err := res.WriteJSONFile(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := ReadJSONFile(path)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, loaded)
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatal(err)
	}
	j, _, n := exports(t, merged)
	mustEqual(t, "JSON after file round-trip", wantJSON, j)
	mustEqual(t, "NDJSON after file round-trip", wantNDJSON, n)
}

// TestReadJSONRejectsNonResults guards the -merge path against the
// classic mistake of feeding it the wrong files: JSON that decodes but
// is not a campaign result (a shard spec, an arbitrary object) must be
// rejected, not merged as an empty campaign.
func TestReadJSONRejectsNonResults(t *testing.T) {
	spec, err := diffCampaign(1).Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	res, err := diffCampaign(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var one bytes.Buffer
	if err := res.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	concatenated := append(append([]byte{}, one.Bytes()...), one.Bytes()...)
	for name, data := range map[string][]byte{
		"shard spec":         specJSON,
		"empty object":       []byte(`{}`),
		"wrong object":       []byte(`{"campaign":"x","seed":3}`),
		"not json":           []byte(`hello`),
		"naked array":        []byte(`[1,2,3]`),
		"empty document":     nil,
		"concatenated files": concatenated, // decoding just the first would silently drop the rest
	} {
		t.Run(name, func(t *testing.T) {
			if res, err := readJSON(bytes.NewReader(data)); err == nil {
				t.Fatalf("accepted as a campaign result: %+v", res)
			}
		})
	}
}

// TestMergePartialThenRemainder checks incremental assembly: merging 2
// of 3 shards yields a valid partial result that merges with the third
// into the full one.
func TestMergePartialThenRemainder(t *testing.T) {
	ctx := context.Background()
	ref, err := diffCampaign(1).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _, _ := exports(t, ref)

	var parts []*Result
	for i := 0; i < 3; i++ {
		spec, err := diffCampaign(1).Shard(i, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := diffCampaign(1).RunShard(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, res)
	}
	partial, err := Merge(parts[0], parts[2])
	if err != nil {
		t.Fatal(err)
	}
	full, err := Merge(partial, parts[1])
	if err != nil {
		t.Fatal(err)
	}
	var j bytes.Buffer
	if err := full.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "JSON after two-stage merge", wantJSON, j.Bytes())
}

// TestShardSplitCoversExactly checks every split is a partition: each
// trial of each scenario is owned by exactly one shard, and contiguity
// holds along the flattened grid.
func TestShardSplitCoversExactly(t *testing.T) {
	c := diffCampaign(1)
	for _, k := range []int{1, 2, 3, 5, 49, 100} {
		owned := make(map[string]int)
		for i := 0; i < k; i++ {
			spec, err := c.Shard(i, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, sl := range spec.Slices {
				for ti := sl.From; ti < sl.To; ti++ {
					owned[fmt.Sprintf("%s/%d", sl.Scenario, ti)]++
				}
			}
		}
		total := 0
		for _, s := range c.Scenarios {
			total += s.Trials
			for ti := 0; ti < s.Trials; ti++ {
				key := fmt.Sprintf("%s/%d", s.Name, ti)
				if owned[key] != 1 {
					t.Fatalf("k=%d: trial %s owned by %d shards", k, key, owned[key])
				}
			}
		}
		if len(owned) != total {
			t.Fatalf("k=%d: %d trials owned, campaign has %d", k, len(owned), total)
		}
	}
}

// TestShardSpecRejectsMismatchedCampaign checks stale or mistargeted
// specs fail loudly instead of running the wrong trials.
func TestShardSpecRejectsMismatchedCampaign(t *testing.T) {
	ctx := context.Background()
	c := diffCampaign(1)
	spec, err := c.Shard(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*ShardSpec, *Campaign)
	}{
		{"campaign name", func(s *ShardSpec, _ *Campaign) { s.Campaign = "other" }},
		{"campaign seed", func(_ *ShardSpec, c *Campaign) { c.Seed++ }},
		{"scenario seed", func(s *ShardSpec, _ *Campaign) { s.Slices[0].Seed++ }},
		{"trial range", func(s *ShardSpec, _ *Campaign) { s.Slices[0].To = 1 << 20 }},
		{"scenario name", func(s *ShardSpec, _ *Campaign) { s.Slices[0].Scenario = "nope" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := diffCampaign(1)
			spec := spec
			spec.Slices = append([]ShardSlice(nil), spec.Slices...)
			tc.mutate(&spec, &c)
			if _, err := c.RunShard(ctx, spec); err == nil {
				t.Fatal("mismatched shard spec was accepted")
			}
		})
	}
}
