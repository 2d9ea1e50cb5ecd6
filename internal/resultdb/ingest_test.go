package resultdb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/synchcount/synchcount/internal/harness"
)

// ingestReference is IngestResult as it was before dedup went through
// the stored groups: every stored record indexed in one map per
// ingest, the segment written with encoding/json. It is the oracle
// TestIngestMatchesReference holds the grouped dedup and the
// hand-written segment encoder to.
func ingestReference(s *Store, res *harness.Result) (IngestStats, error) {
	type recKey struct {
		groupKey
		Trial int
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadAll(); err != nil {
		return IngestStats{}, err
	}
	stored := make(map[recKey]harness.Trial)
	groupSeeds := make(map[groupKey]int64)
	for _, meta := range s.man.Segments {
		for _, g := range s.segs[meta.ID].Groups {
			gk := groupKey{g.Campaign, g.CampaignSeed, g.Scenario}
			groupSeeds[gk] = g.ScenarioSeed
			for _, tr := range g.Trials {
				stored[recKey{gk, tr.Trial}] = tr
			}
		}
	}
	seg := &segment{Schema: segmentSchema, ID: s.man.NextSegment}
	groupIdx := make(map[groupKey]int)
	var stats IngestStats
	for _, sc := range res.Scenarios {
		gk := groupKey{res.Campaign, res.Seed, sc.Name}
		if seed, ok := groupSeeds[gk]; ok && seed != sc.Seed {
			return IngestStats{}, fmt.Errorf("resultdb: scenario %q of campaign %q (seed %d): base seed %d conflicts with stored %d",
				sc.Name, res.Campaign, res.Seed, sc.Seed, seed)
		}
		for _, tr := range sc.Trials {
			stats.Records++
			rk := recKey{gk, tr.Trial}
			if prev, ok := stored[rk]; ok {
				if prev != tr {
					return IngestStats{}, fmt.Errorf("resultdb: %s/%s trial %d: record conflicts with the one already stored — same provenance, different content",
						res.Campaign, sc.Name, tr.Trial)
				}
				stats.Duplicates++
				continue
			}
			stored[rk] = tr
			gi, ok := groupIdx[gk]
			if !ok {
				gi = len(seg.Groups)
				seg.Groups = append(seg.Groups, segGroup{
					Campaign:     res.Campaign,
					CampaignSeed: res.Seed,
					Scenario:     sc.Name,
					ScenarioSeed: sc.Seed,
				})
				groupIdx[gk] = gi
				groupSeeds[gk] = sc.Seed
			}
			seg.Groups[gi].Trials = append(seg.Groups[gi].Trials, tr)
			stats.Added++
		}
	}
	if stats.Added == 0 {
		return stats, nil
	}
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		sort.SliceStable(g.Trials, func(i, j int) bool { return g.Trials[i].Trial < g.Trials[j].Trial })
		g.sortedTimes = sortedRun(g.Trials)
	}
	meta := segmentMeta{ID: seg.ID, File: segmentFileName(seg.ID), Groups: len(seg.Groups), Trials: stats.Added}
	if err := writeJSONAtomic(filepath.Join(s.dir, meta.File), seg); err != nil {
		return IngestStats{}, err
	}
	man := s.man
	man.NextSegment++
	man.Segments = append(append([]segmentMeta(nil), man.Segments...), meta)
	if err := writeJSONAtomic(filepath.Join(s.dir, manifestFile), man); err != nil {
		return IngestStats{}, err
	}
	s.man = man
	s.segs[seg.ID] = seg
	s.idx.add(seg) // keeps the store's source index in step, as IngestResult does
	stats.Segment = seg.ID
	return stats, nil
}

// refTrial is the one true record of a (campaign seed, scenario,
// trial) key in TestIngestMatchesReference; tampered records differ
// from it.
func refTrial(cseed int64, scenario string, trial int) harness.Trial {
	h := cseed*7919 + int64(len(scenario))*104729 + int64(trial)
	return harness.Trial{Trial: trial, Seed: h, Observation: harness.Observation{
		Stabilised:        h%5 != 0,
		StabilisationTime: uint64(h % 97),
		RoundsRun:         uint64(h%97) + 32,
		MeanPulls:         float64(h%11) / 3,
	}}
}

// ingestBatches generates random ingest batches, mostly over a small
// key space so later batches overlap earlier ones, and counts which
// hazards it put in: records repeated within a batch (dup), repeated
// with other content (conflict, in the batch or against the store) and
// scenarios with a second base seed (seed, in the batch or against the
// store).
func ingestBatches(rng *rand.Rand, n int) (batches []*harness.Result, dup, conflict, seed int) {
	scenarios := []string{"ecount/f=1/c=2/faults=1/silent", "ecount/f=1/c=2/faults=1/splitvote", "countsim"}
	for len(batches) < n {
		cseed := int64(1 + rng.Intn(2))
		if rng.Intn(4) == 0 {
			cseed = int64(10 + len(batches)) // groups new to the store
		}
		res := &harness.Result{Campaign: "camp", Seed: cseed}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			name := scenarios[rng.Intn(len(scenarios))]
			sc := harness.ScenarioResult{Name: name, Seed: cseed * 100}
			if rng.Intn(40) == 0 {
				sc.Seed++
				seed++
			}
			for m := 1 + rng.Intn(8); m > 0; m-- {
				tr := refTrial(cseed, name, rng.Intn(48))
				if rng.Intn(60) == 0 {
					tr.RoundsRun++
					conflict++
				}
				sc.Trials = append(sc.Trials, tr)
				if rng.Intn(8) == 0 {
					again := tr
					if rng.Intn(6) == 0 {
						again.Violations++
						conflict++
					} else {
						dup++
					}
					sc.Trials = append(sc.Trials, again)
				}
			}
			res.Scenarios = append(res.Scenarios, sc)
		}
		if rng.Intn(8) == 0 { // the first scenario again, under another base seed
			sc := res.Scenarios[0]
			sc.Seed++
			res.Scenarios = append(res.Scenarios, sc)
			seed++
		}
		batches = append(batches, res)
	}
	return batches, dup, conflict, seed
}

// readStoreFiles returns every file of a store directory by name.
func readStoreFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestIngestMatchesReference feeds the same random batches to
// IngestResult and to ingestReference on two stores: every batch must
// give the same IngestStats or the same error text, and the two store
// directories must stay byte-identical, segments and manifest alike.
func TestIngestMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			dir := t.TempDir()
			got, err := Open(filepath.Join(dir, "got"))
			if err != nil {
				t.Fatal(err)
			}
			want, err := Open(filepath.Join(dir, "want"))
			if err != nil {
				t.Fatal(err)
			}
			batches, dup, conflict, seeds := ingestBatches(rand.New(rand.NewSource(seed)), 120)
			if dup == 0 || conflict == 0 || seeds == 0 {
				t.Fatalf("generator put in %d in-batch duplicates, %d conflicts, %d seed conflicts; want some of each", dup, conflict, seeds)
			}
			failed := 0
			for i, res := range batches {
				gs, gerr := got.IngestResult(res)
				ws, werr := ingestReference(want, res)
				if fmt.Sprint(gerr) != fmt.Sprint(werr) || gs != ws {
					t.Fatalf("batch %d: IngestResult gave %+v, %v; reference %+v, %v", i, gs, gerr, ws, werr)
				}
				if gerr != nil {
					failed++
				}
			}
			if failed == 0 || failed == len(batches) {
				t.Fatalf("%d of %d batches failed; want some of both", failed, len(batches))
			}
			gotFiles, wantFiles := readStoreFiles(t, got.Dir()), readStoreFiles(t, want.Dir())
			if len(gotFiles) != len(wantFiles) {
				t.Fatalf("stores hold %d and %d files", len(gotFiles), len(wantFiles))
			}
			for name, data := range wantFiles {
				if !bytes.Equal(gotFiles[name], data) {
					t.Fatalf("%s differs from the reference store's", name)
				}
			}
			// The dedup must have searched groups spread over segments.
			spread := map[groupKey]int{}
			for _, meta := range got.man.Segments {
				for _, g := range got.segs[meta.ID].Groups {
					spread[groupKey{g.Campaign, g.CampaignSeed, g.Scenario}]++
				}
			}
			most := 0
			for _, n := range spread {
				most = max(most, n)
			}
			if most < 3 {
				t.Fatalf("no group spans 3 or more segments (at most %d)", most)
			}
		})
	}
}

// encodeSegmentJSON is the encoding appendSegment must reproduce.
func encodeSegmentJSON(seg *segment) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(seg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkSegmentEncoding fails unless appendSegment and encoding/json
// produce the same bytes for seg, or fail with the same error text.
func checkSegmentEncoding(t *testing.T, seg *segment) {
	t.Helper()
	got, gotErr := appendSegment(nil, seg)
	want, wantErr := encodeSegmentJSON(seg)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("appendSegment error %v, encoding/json %v", gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendSegment differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

// FuzzSegmentEncoding holds the hand-written segment encoder to
// json.Encoder with SetIndent("", "  "): the same bytes for any
// strings, integers and floats, and the same error exactly when
// encoding/json fails (NaN and infinite mean_pulls). shape picks nil
// or empty slices and the group and trial counts.
func FuzzSegmentEncoding(f *testing.F) {
	for _, name := range []string{"golden.ndjson", "compare_golden.ndjson"} {
		res, err := harness.ReadNDJSONFile(filepath.Join("..", "harness", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		sc := res.Scenarios[0]
		tr := sc.Trials[0]
		f.Add(segmentSchema, 1, res.Campaign, res.Seed, sc.Name, sc.Seed, tr.Trial, tr.Seed, tr.Stabilised,
			tr.StabilisationTime, tr.RoundsRun, tr.BitsPerRound, tr.MeanPulls, byte(0x1a))
	}
	for _, edge := range []struct {
		campaign, scenario string
		mean               float64
	}{
		{"<>&", "a/f=1  ", 1e-7},
		{"\xff\xfe", "\"quoted\"\\", 1e21},
		{"tab\there", "del\x7f", math.Copysign(0, -1)},
		{"ü€😀", "", 1e-6},
		{"c", "s", 123456789.125},
		{"c", "s", 9.999999999999999e20},
		{"c", "s", 5e-324},
		{"c", "s", math.NaN()},
		{"c", "s", math.Inf(-1)},
	} {
		f.Add(segmentSchema, 7, edge.campaign, int64(-1), edge.scenario, int64(math.MinInt64), -3, int64(math.MaxInt64), true,
			uint64(math.MaxUint64), uint64(0), uint64(1), edge.mean, byte(0x2a))
	}
	f.Add("", 0, "", int64(0), "", int64(0), 0, int64(0), false, uint64(0), uint64(0), uint64(0), 0.0, byte(0))
	f.Add("", 0, "", int64(0), "", int64(0), 0, int64(0), false, uint64(0), uint64(0), uint64(0), 0.0, byte(1))
	f.Add("", 0, "", int64(0), "", int64(0), 0, int64(0), false, uint64(0), uint64(0), uint64(0), 0.0, byte(2))
	f.Add("", 0, "", int64(0), "", int64(0), 0, int64(0), false, uint64(0), uint64(0), uint64(0), 0.0, byte(6))
	f.Fuzz(func(t *testing.T, schema string, id int, campaign string, cseed int64, scenario string, sseed int64,
		trial int, tseed int64, stabilised bool, stime, rounds, bits uint64, mean float64, shape byte) {
		tr := harness.Trial{Trial: trial, Seed: tseed, Observation: harness.Observation{
			Stabilised: stabilised, StabilisationTime: stime, RoundsRun: rounds, Violations: stime ^ rounds,
			MessagesPerRound: bits >> 3, BitsPerRound: bits, MaxPulls: rounds >> 7, MeanPulls: mean,
		}}
		seg := &segment{Schema: schema, ID: id}
		// shape: bits 0-1 groups nil/empty/some, bits 2-3 trials
		// nil/empty/some, bits 4-5 extra copies.
		if shape&3 != 0 {
			seg.Groups = []segGroup{}
		}
		for g := 0; shape&3 >= 2 && g < 1+int(shape>>4&3); g++ {
			sg := segGroup{Campaign: campaign, CampaignSeed: cseed, Scenario: scenario, ScenarioSeed: sseed}
			if shape>>2&3 != 0 {
				sg.Trials = []harness.Trial{}
			}
			for k := 0; shape>>2&3 >= 2 && k < 1+int(shape>>4&3); k++ {
				sg.Trials = append(sg.Trials, tr)
				tr.Trial++
			}
			seg.Groups = append(seg.Groups, sg)
		}
		checkSegmentEncoding(t, seg)
	})
}

// FuzzOpenStore opens a store from arbitrary MANIFEST.json and
// seg-000001.json bytes: Open, Query and Campaigns must each succeed or
// return an error, never panic, and any segment that loads must
// re-encode through appendSegment exactly as encoding/json encodes it.
func FuzzOpenStore(f *testing.F) {
	dir := f.TempDir()
	store, err := Open(filepath.Join(dir, "seed"))
	if err != nil {
		f.Fatal(err)
	}
	res, err := storeCampaign("camp", 3).Run(context.Background())
	if err != nil {
		f.Fatal(err)
	}
	res.Scenarios = res.Scenarios[:2]
	for si := range res.Scenarios {
		res.Scenarios[si].Trials = res.Scenarios[si].Trials[:3]
	}
	if _, err := store.IngestResult(res); err != nil {
		f.Fatal(err)
	}
	man, err := os.ReadFile(filepath.Join(store.Dir(), manifestFile))
	if err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(store.Dir(), segmentFileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(man, seg)
	f.Add(man, bytes.Replace(seg, []byte(`"trial": 1,`), []byte(`"trial": 0,`), 1)) // out of order
	f.Add(man, bytes.Replace(seg, []byte(`"mean_pulls": 0`), []byte(`"mean_pulls": 1e400`), 1))
	f.Add(man, []byte(`{"schema":"synchcount-resultdb-segment/v1","segment":1,"groups":null}`))
	f.Add(man, []byte(`{"schema":"synchcount-resultdb-segment/v1","segment":1,"groups":[{"campaign":"<&>","trials":[]}]}`))
	f.Add(bytes.Replace(man, []byte(`"seg-000001.json"`), []byte(`"../MANIFEST.json"`), 1), seg)
	f.Add(bytes.Replace(man, []byte(`"next_segment": 2`), []byte(`"next_segment": 1`), 1), seg)
	f.Add([]byte(`{"schema":"synchcount-resultdb/v1","next_segment":1,"segments":null}`), []byte(nil))
	f.Add([]byte(`{"schema":"synchcount-resultdb/v1","next_segment":3,"segments":[{"id":1,"file":"seg-000001.json"},{"id":1,"file":"seg-000001.json"}]}`), seg)
	f.Add(man, []byte(`{"Schema":"synchcount-resultdb-segment/v1","SEGMENT":1,"groups":[],"groups":null}`))
	f.Add([]byte(`not json`), []byte(`{}`))
	f.Fuzz(func(t *testing.T, manifest, segment []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestFile), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentFileName(1)), segment, 0o644); err != nil {
			t.Fatal(err)
		}
		store, err := Open(dir)
		if err != nil {
			return
		}
		groups, qerr := store.Query(Query{})
		infos, cerr := store.Campaigns()
		if (qerr == nil) != (cerr == nil) {
			t.Fatalf("Query error %v, Campaigns error %v: both read the same segments", qerr, cerr)
		}
		if qerr == nil {
			records := 0
			for _, g := range groups {
				records += len(g.Records)
			}
			trials := 0
			for _, info := range infos {
				trials += info.Trials
			}
			if records != trials {
				t.Fatalf("Query returned %d records, Campaigns counts %d trials", records, trials)
			}
		}
		for _, seg := range store.segs {
			checkSegmentEncoding(t, seg)
		}
	})
}

// TestSegmentEncodingMatchesJSON pins the encoder on a real ingest:
// the segment file on disk is what encoding/json writes for the
// segment as loaded back.
func TestSegmentEncodingMatchesJSON(t *testing.T) {
	dir := t.TempDir()
	store, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := storeCampaign("camp<&>", 11).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.IngestResult(res)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(store.Dir(), segmentFileName(st.Segment)))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Query(Query{}); err != nil {
		t.Fatal(err)
	}
	want, err := encodeSegmentJSON(fresh.segs[st.Segment])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Fatalf("segment file differs from encoding/json's encoding of it")
	}
	if !reflect.DeepEqual(fresh.segs[st.Segment], store.segs[st.Segment]) {
		t.Fatal("reloaded segment differs from the one ingest cached")
	}

	// A NaN cannot be written; the batch fails as it did under
	// encoding/json and leaves the store as it was.
	res.Scenarios[0].Trials[0].MeanPulls = math.NaN()
	res.Scenarios[0].Trials[0].Trial = 1000
	if _, err := store.IngestResult(res); err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("NaN ingest: err = %v", err)
	}
	if store.Segments() != 1 {
		t.Fatalf("failed ingest left %d segments", store.Segments())
	}
}
