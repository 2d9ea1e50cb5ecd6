package resultdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/synchcount/synchcount/internal/harness"
)

// writeIngestShards writes campaigns × shards NDJSON files of
// compare-shaped records — 49 scenarios (7 cells × 7 adversaries) of
// trials records per campaign, each shard a contiguous trial range of
// every scenario — and returns their paths and record count.
func writeIngestShards(tb testing.TB, dir string, campaigns, shards, trials int) ([]string, int) {
	tb.Helper()
	rng := rand.New(rand.NewSource(19))
	cells := []struct {
		alg string
		f   int
	}{{"ecount", 1}, {"ecount", 3}, {"ecount-chain", 1}, {"ecount-chain", 3}, {"theorem2", 1}, {"theorem2", 3}, {"figure2", 1}}
	advs := []string{"crash", "equivocate", "flip", "random", "saboteur", "silent", "splitvote"}
	var paths []string
	records := 0
	for k := 0; k < campaigns; k++ {
		res := &harness.Result{Campaign: "compare", Seed: rng.Int63()}
		for _, c := range cells {
			for _, adv := range advs {
				sc := harness.ScenarioResult{Name: fmt.Sprintf("%s/f=%d/c=8/faults=%d/%s", c.alg, c.f, c.f, adv), Seed: res.Seed}
				for t := 0; t < trials; t++ {
					o := harness.Observation{MessagesPerRound: 90, BitsPerRound: 90 * 14}
					if rng.Intn(50) > 0 {
						o.Stabilised = true
						o.StabilisationTime = uint64(rng.Int63n(194))
						o.RoundsRun = o.StabilisationTime + 32
					} else {
						o.RoundsRun = 4096
					}
					sc.Trials = append(sc.Trials, harness.Trial{Trial: t, Seed: rng.Int63(), Observation: o})
				}
				res.Scenarios = append(res.Scenarios, sc)
			}
		}
		for sh := 0; sh < shards; sh++ {
			lo, hi := sh*trials/shards, (sh+1)*trials/shards
			part := &harness.Result{Campaign: res.Campaign, Seed: res.Seed}
			for _, sc := range res.Scenarios {
				part.Scenarios = append(part.Scenarios, harness.ScenarioResult{Name: sc.Name, Seed: sc.Seed, Trials: sc.Trials[lo:hi]})
				records += hi - lo
			}
			path := filepath.Join(dir, fmt.Sprintf("compare-%d-shard-%d.ndjson", k, sh))
			if err := part.WriteNDJSONFile(path); err != nil {
				tb.Fatal(err)
			}
			paths = append(paths, path)
		}
	}
	return paths, records
}

// BenchmarkStore_Ingest ingests 20 NDJSON shards (4 campaigns × 5
// trial ranges, 19,600 records) into a fresh store per iteration, in a
// scrambled order, and reports the cost per record: NDJSON decode,
// dedup against every segment already stored, and the segment write.
func BenchmarkStore_Ingest(b *testing.B) {
	dir := b.TempDir()
	paths, records := writeIngestShards(b, dir, 4, 5, 100)
	order := rand.New(rand.NewSource(7)).Perm(len(paths))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store, err := Open(filepath.Join(dir, fmt.Sprintf("store-%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range order {
			if _, err := store.IngestFile(paths[p]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := os.RemoveAll(store.Dir()); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// BenchmarkStore_Query runs the results-store benchmark's query mix —
// per algorithm an alg and adversary filter, a pooled one, one with an
// f filter, and an exact scenario name plain and pooled — over the
// 20-shard store BenchmarkStore_Ingest builds, one query per
// iteration, with every segment already cached: the warm query path.
func BenchmarkStore_Query(b *testing.B) {
	dir := b.TempDir()
	paths, _ := writeIngestShards(b, dir, 4, 5, 100)
	store, err := Open(filepath.Join(dir, "store"))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range rand.New(rand.NewSource(7)).Perm(len(paths)) {
		if _, err := store.IngestFile(paths[p]); err != nil {
			b.Fatal(err)
		}
	}
	all, err := store.Query(Query{Pool: true})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	advs := []string{"crash", "equivocate", "flip", "random", "saboteur", "silent", "splitvote"}
	pick := func() string { return advs[rng.Intn(len(advs))] }
	scenario := func() string { return all[rng.Intn(len(all))].Scenario }
	var mix []Query
	for _, a := range []string{"ecount", "ecount-chain", "theorem2", "figure2"} {
		mix = append(mix,
			Query{Algs: []string{a}, Adversaries: []string{pick(), pick()}},
			Query{Algs: []string{a}, Adversaries: []string{pick()}, Pool: true},
			Query{Algs: []string{a}, Fs: []int{3}, Adversaries: []string{pick()}},
			Query{Scenario: scenario()},
			Query{Scenario: scenario(), Pool: true},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Query(mix[i%len(mix)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
}
