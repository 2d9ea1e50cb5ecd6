package resultdb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/synchcount/synchcount/internal/harness"
)

// storeCampaign mirrors the harness differential campaign: pure
// seed-derived observations, uneven scenario sizes so shard
// boundaries fall inside and between scenarios, compare-style names
// so the axis index has something to parse.
func storeCampaign(name string, seed int64) harness.Campaign {
	scen := func(scenario string, trials int) harness.Scenario {
		return harness.Scenario{
			Name:   scenario,
			Trials: trials,
			Run: func(_ context.Context, trial int, tseed int64) (harness.Observation, error) {
				return harness.Observation{
					Stabilised:        tseed%5 != 0,
					StabilisationTime: uint64(tseed % 977),
					RoundsRun:         uint64(tseed%977) + 32,
					Violations:        uint64(trial % 3),
					MessagesPerRound:  uint64(tseed % 89),
					BitsPerRound:      uint64(tseed % 1021),
					MaxPulls:          uint64(tseed % 13),
					MeanPulls:         float64(tseed%1000) / 7,
				}, nil
			},
		}
	}
	return harness.Campaign{
		Name: name,
		Seed: seed,
		Scenarios: []harness.Scenario{
			scen("ecount/f=3/c=2/faults=3/silent", 23),
			scen("ecount/f=3/c=2/faults=3/splitvote", 8),
			scen("theorem2/f=3/c=2/faults=3/silent", 17),
			scen("countsim", 5),
		},
	}
}

// shardNDJSONFiles runs the campaign as a K-way split, streaming each
// shard to its own NDJSON file, and returns the paths.
func shardNDJSONFiles(t *testing.T, dir string, c harness.Campaign, k int) []string {
	t.Helper()
	ctx := context.Background()
	paths := make([]string, k)
	for i := 0; i < k; i++ {
		spec, err := c.Shard(i, k)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("%s-s%d.ndjson", c.Name, i))
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := c.StreamShard(ctx, spec, harness.NDJSONSink(f)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestStoreIngestQueryExact is the core differential: NDJSON shards
// ingested in scrambled order must query back with per-scenario
// statistics and trials exactly equal to the live unsharded run's.
func TestStoreIngestQueryExact(t *testing.T) {
	dir := t.TempDir()
	c := storeCampaign("compare", 20260807)
	ref, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	paths := shardNDJSONFiles(t, dir, c, 3)

	store, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 0} { // ingest order must not matter
		st, err := store.IngestFile(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if st.Duplicates != 0 || st.Added != st.Records {
			t.Fatalf("shard %d: unexpected ingest stats %+v", i, st)
		}
	}

	groups, err := store.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != len(ref.Scenarios) {
		t.Fatalf("query returned %d groups, want %d", len(groups), len(ref.Scenarios))
	}
	for _, g := range groups {
		want := ref.Scenario(g.Scenario)
		if want == nil {
			t.Fatalf("query invented scenario %q", g.Scenario)
		}
		if g.Stats != want.Stats {
			t.Fatalf("scenario %q stats drifted\n store: %+v\n live:  %+v", g.Scenario, g.Stats, want.Stats)
		}
		if g.ScenarioSeed != want.Seed || g.Campaign != ref.Campaign || g.CampaignSeed != ref.Seed {
			t.Fatalf("scenario %q provenance drifted: %+v", g.Scenario, g)
		}
		trials := make([]harness.Trial, len(g.Records))
		for i, rec := range g.Records {
			trials[i] = rec.Trial
		}
		if !reflect.DeepEqual(trials, want.Trials) {
			t.Fatalf("scenario %q trials drifted", g.Scenario)
		}
	}
}

// TestStoreDedupAndConflicts: re-ingesting is a no-op that writes no
// segment; a same-key record with different content fails the batch.
func TestStoreDedupAndConflicts(t *testing.T) {
	dir := t.TempDir()
	c := storeCampaign("camp", 5)
	paths := shardNDJSONFiles(t, dir, c, 2)

	store, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.IngestFile(paths[0]); err != nil {
		t.Fatal(err)
	}
	st, err := store.IngestFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Added != 0 || st.Segment != 0 || st.Duplicates != st.Records {
		t.Fatalf("re-ingest was not a no-op: %+v", st)
	}
	if got := store.Segments(); got != 1 {
		t.Fatalf("re-ingest wrote a segment: store holds %d", got)
	}

	// Overlapping batch: the second shard plus a duplicate of the
	// first — new records land, duplicates are skipped.
	res0, err := harness.ReadNDJSONFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	res1, err := harness.ReadNDJSONFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	both, err := harness.Merge(res0, res1)
	if err != nil {
		t.Fatal(err)
	}
	st, err = store.IngestResult(both)
	if err != nil {
		t.Fatal(err)
	}
	if st.Added == 0 || st.Duplicates == 0 || st.Added+st.Duplicates != st.Records {
		t.Fatalf("partial overlap ingested wrong: %+v", st)
	}

	// Conflict: same provenance, different observation.
	tampered := *res1
	tampered.Scenarios = append([]harness.ScenarioResult(nil), res1.Scenarios...)
	for si := range tampered.Scenarios {
		if len(tampered.Scenarios[si].Trials) > 0 {
			tampered.Scenarios[si].Trials = append([]harness.Trial(nil), tampered.Scenarios[si].Trials...)
			tampered.Scenarios[si].Trials[0].RoundsRun += 7
			break
		}
	}
	if _, err := store.IngestResult(&tampered); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("conflicting record accepted (err=%v)", err)
	}

	// Scenario-seed conflict is provenance corruption too.
	reseeded := *res1
	reseeded.Scenarios = append([]harness.ScenarioResult(nil), res1.Scenarios...)
	reseeded.Scenarios[0].Seed++
	if _, err := store.IngestResult(&reseeded); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("scenario-seed conflict accepted (err=%v)", err)
	}
}

// TestStoreNoRescan pins the incremental-aggregation contract: after
// the first query has warmed the cache, repeated queries — and queries
// after further ingests — never re-read cold segments from disk.
func TestStoreNoRescan(t *testing.T) {
	dir := t.TempDir()
	c := storeCampaign("camp", 31)
	paths := shardNDJSONFiles(t, dir, c, 3)

	seed := func(t *testing.T) *Store {
		t.Helper()
		store, err := Open(filepath.Join(dir, "store"))
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	store := seed(t)
	for _, p := range paths[:2] {
		if _, err := store.IngestFile(p); err != nil {
			t.Fatal(err)
		}
	}

	// Fresh handle: the first query parses every segment exactly once.
	store = seed(t)
	first, err := store.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.SegmentLoads(); got != store.Segments() {
		t.Fatalf("first query loaded %d segments, store holds %d", got, store.Segments())
	}
	warm := store.SegmentLoads()

	again, err := store.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatal("repeated query changed its answer")
	}
	if _, err := store.Query(Query{Algs: []string{"ecount"}, Adversaries: []string{"silent"}}); err != nil {
		t.Fatal(err)
	}
	if got := store.SegmentLoads(); got != warm {
		t.Fatalf("repeated queries re-read segments: %d loads, want %d", got, warm)
	}

	// Ingesting through the same handle registers the new segment in
	// the cache directly — still no re-reads, of it or of the cold
	// ones.
	if _, err := store.IngestFile(paths[2]); err != nil {
		t.Fatal(err)
	}
	merged, err := store.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.SegmentLoads(); got != warm {
		t.Fatalf("ingest+query re-read segments: %d loads, want %d", got, warm)
	}
	total := 0
	for _, g := range merged {
		total += len(g.Records)
	}
	want := 0
	for _, sc := range storeCampaign("camp", 31).Scenarios {
		want += sc.Trials
	}
	if total != want {
		t.Fatalf("after full ingest the store holds %d records, want %d", total, want)
	}
}

// TestQueryFiltersAndPooling: axis filters select by parsed scenario
// coordinates; -pool folds same-named scenarios across campaigns with
// statistics exactly equal to aggregating the concatenated trials.
func TestQueryFiltersAndPooling(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	resA, err := storeCampaign("campA", 1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resB, err := storeCampaign("campB", 2).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*harness.Result{resA, resB} {
		if _, err := store.IngestResult(res); err != nil {
			t.Fatal(err)
		}
	}

	three := func(q Query) []Group {
		t.Helper()
		groups, err := store.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		return groups
	}
	if g := three(Query{Algs: []string{"ecount"}}); len(g) != 4 { // 2 scenarios x 2 campaigns
		t.Fatalf("alg filter returned %d groups, want 4", len(g))
	}
	if g := three(Query{Adversaries: []string{"splitvote"}}); len(g) != 2 {
		t.Fatalf("adversary filter returned %d groups, want 2", len(g))
	}
	if g := three(Query{Scenario: "countsim"}); len(g) != 2 {
		t.Fatalf("scenario filter returned %d groups, want 2", len(g))
	}
	seed := int64(2)
	if g := three(Query{CampaignSeed: &seed}); len(g) != 4 {
		t.Fatalf("campaign-seed filter returned %d groups, want 4", len(g))
	}
	faults := 99
	if g := three(Query{Faults: &faults}); len(g) != 0 {
		t.Fatalf("impossible faults filter returned %d groups", len(g))
	}

	pooled := three(Query{Scenario: "ecount/f=3/c=2/faults=3/silent", Pool: true})
	if len(pooled) != 1 {
		t.Fatalf("pooled query returned %d groups, want 1", len(pooled))
	}
	g := pooled[0]
	if g.Campaigns != 2 || g.Campaign != "" || g.CampaignSeed != 0 {
		t.Fatalf("pooled group provenance wrong: %+v", g)
	}
	// Exactness: pooled stats equal a harness fold over the records in
	// the group's canonical order.
	trials := make([]harness.Trial, len(g.Records))
	for i, rec := range g.Records {
		trials[i] = rec.Trial
	}
	if want := harness.Aggregate(trials); g.Stats != want {
		t.Fatalf("pooled stats drifted\n store: %+v\n fold:  %+v", g.Stats, want)
	}
	wantLen := len(resA.Scenario(g.Scenario).Trials) + len(resB.Scenario(g.Scenario).Trials)
	if len(g.Records) != wantLen {
		t.Fatalf("pooled group holds %d records, want %d", len(g.Records), wantLen)
	}

	infos, err := store.Campaigns()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Campaign != "campA" || infos[1].Campaign != "campB" {
		t.Fatalf("campaign listing wrong: %+v", infos)
	}
	if infos[0].Scenarios != 4 || infos[0].Trials != 53 {
		t.Fatalf("campaign summary wrong: %+v", infos[0])
	}
}

// TestFoldStatsMatchesAggregate is the drift guard for the store's
// hand-rolled fold: over every group of a real campaign it must equal
// harness.Aggregate bit for bit, quantiles included (they come from
// the merged per-segment sorted runs, not a re-sort).
func TestFoldStatsMatchesAggregate(t *testing.T) {
	dir := t.TempDir()
	c := storeCampaign("camp", 977)
	paths := shardNDJSONFiles(t, dir, c, 5)
	store, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if _, err := store.IngestFile(p); err != nil {
			t.Fatal(err)
		}
	}
	groups, err := store.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		trials := make([]harness.Trial, len(g.Records))
		for i, rec := range g.Records {
			trials[i] = rec.Trial
		}
		if want := harness.Aggregate(trials); g.Stats != want {
			t.Fatalf("scenario %q: foldStats drifted from harness.Aggregate\n store: %+v\n fold:  %+v", g.Scenario, g.Stats, want)
		}
	}
}

// TestOpenRejectsForeignStore: a manifest from another schema, or a
// tampered segment, must be rejected loudly.
func TestOpenRejectsForeignStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(`{"schema":"not-a-store/v0"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign manifest accepted (err=%v)", err)
	}

	dir2 := t.TempDir()
	store, err := Open(filepath.Join(dir2, "store"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := storeCampaign("camp", 3).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.IngestResult(res)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir2, "store", segmentFileName(st.Segment))
	if err := os.WriteFile(segPath, []byte(`{"schema":"wrong"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(filepath.Join(dir2, "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Query(Query{}); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("tampered segment accepted (err=%v)", err)
	}
}

// TestOpenRejectsOutOfSequenceManifest: every manifest entry must name
// its own id's file, in ascending id order below next_segment, so a
// hostile manifest can neither read a file outside the store nor have
// the next ingest overwrite a listed segment.
func TestOpenRejectsOutOfSequenceManifest(t *testing.T) {
	for _, segments := range []string{
		`{"id":1,"file":"../MANIFEST.json"}`,
		`{"id":1,"file":"seg-000002.json"}`,
		`{"id":0,"file":"seg-000000.json"}`,
		`{"id":3,"file":"seg-000003.json"}`,
		`{"id":2,"file":"seg-000002.json"},{"id":1,"file":"seg-000001.json"}`,
		`{"id":1,"file":"seg-000001.json"},{"id":1,"file":"seg-000001.json"}`,
	} {
		dir := t.TempDir()
		man := `{"schema":"synchcount-resultdb/v1","next_segment":3,"segments":[` + segments + `]}`
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
			t.Errorf("manifest segments [%s] accepted (err=%v)", segments, err)
		}
	}
}

// TestParseAxes pins the scenario-name index grammar.
func TestParseAxes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Axes
	}{
		{"ecount/f=3/c=2/faults=3/silent", Axes{Alg: "ecount", N: -1, F: 3, C: 2, Faults: 3, Adversary: "silent"}},
		{"countsim", Axes{Alg: "countsim", N: -1, F: -1, C: -1, Faults: -1}},
		{"pull/n=1000000/f=7", Axes{Alg: "pull", N: 1000000, F: 7, C: -1, Faults: -1}},
		{"a/f=x/b", Axes{Alg: "a", N: -1, F: -1, C: -1, Faults: -1, Adversary: "b"}},
		{"a/extra=9/b/c", Axes{Alg: "a", N: -1, F: -1, C: -1, Faults: -1, Adversary: "c"}},
		{"", Axes{N: -1, F: -1, C: -1, Faults: -1}},
	} {
		if got := ParseAxes(tc.in); got != tc.want {
			t.Errorf("ParseAxes(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}
