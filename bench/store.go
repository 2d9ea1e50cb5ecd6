package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/resultdb"
)

// storeScenario is one generated compare scenario and the axes the
// queries filter on.
type storeScenario struct {
	name, alg, adv string
	f              int
}

// storeShard is one NDJSON shard file: trials [lo, hi) of every
// scenario of one campaign.
type storeShard struct {
	path     string
	campaign int
	lo, hi   int
}

// storeRunner ingests the generated shards into a fresh store each
// pass, querying between ingests, then reopens the store cold and
// queries it again.
type storeRunner struct {
	e   *env
	dir string
	// campaigns holds every generated record, by campaign, until set-up
	// has derived the expected query answers from it.
	campaigns []*harness.Result
	scenarios []storeScenario
	shards    []storeShard
	queries   []resultdb.Query
	// steps is the sequence every pass replays.
	steps []storeStep
}

// storeStep is one ingest, or with shard -1 the cold reopen, and the
// queries that follow it.
type storeStep struct {
	shard   int
	again   bool  // the shard was ingested earlier in the sequence
	queries []int // indices into storeRunner.queries
	want    [][]expectGroup
}

type expectGroup struct {
	scenario string
	records  int
	stats    harness.Stats
}

func (s *storeRunner) close() { os.RemoveAll(s.dir) }

// setupStore writes about 100k compare-shaped trial records as NDJSON
// shards with harness.Result.WriteNDJSON: four campaigns of the compare
// grid, five trial-range shards each. It fixes the ingest and query
// sequence and computes every query's expected answer. This workload
// exercises only the resultdb layer, with writes beside reads; no other
// workload touches it.
func setupStore(e *env) (runner, time.Duration, error) {
	dir, err := os.MkdirTemp(e.workDir, "results-store-")
	if err != nil {
		return nil, 0, err
	}
	s := &storeRunner{e: e, dir: dir}
	trials, campaigns, shardsPer := 500, 4, 5
	batch, cold := 20, 81 // queries after each ingest, after the cold reopen
	if e.short {
		trials, batch, cold = 10, 2, 5
	}
	advs := adversary.Names()

	// The records carry real cell metadata: built stacks, declared
	// bounds and state sizes.
	start := time.Now()
	var cells []registry.CompareCell
	for _, spec := range []registry.CompareSpec{
		{Algs: []string{"ecount", "ecount-chain", "theorem2"}, Fs: []int{1, 3}, C: 8, Trials: 1, Adversaries: advs},
		{Algs: []string{"figure2"}, C: 8, Trials: 1, Adversaries: advs},
	} {
		_, cs, err := spec.Campaign()
		if err != nil {
			s.close()
			return nil, 0, err
		}
		cells = append(cells, cs...)
	}
	build := time.Since(start)

	rng := rand.New(rand.NewSource(e.seed))
	for _, c := range cells {
		for _, adv := range advs {
			s.scenarios = append(s.scenarios, storeScenario{name: c.ScenarioName(adv), alg: c.Alg, adv: adv, f: c.F})
		}
	}
	sort.Slice(s.scenarios, func(i, j int) bool { return s.scenarios[i].name < s.scenarios[j].name })
	byName := map[string]registry.CompareCell{}
	for _, c := range cells {
		for _, adv := range advs {
			byName[c.ScenarioName(adv)] = c
		}
	}
	for k := 0; k < campaigns; k++ {
		res := &harness.Result{Campaign: "compare", Seed: rng.Int63()}
		for _, sc := range s.scenarios {
			c := byName[sc.name]
			msgs := uint64(c.N-c.Faults) * uint64(c.N-1)
			out := harness.ScenarioResult{Name: sc.name, Seed: res.Seed}
			for t := 0; t < trials; t++ {
				o := harness.Observation{MessagesPerRound: msgs, BitsPerRound: msgs * uint64(c.StateBits)}
				if rng.Intn(50) > 0 {
					o.Stabilised = true
					o.StabilisationTime = uint64(rng.Int63n(int64(c.Bound) + 1))
					o.RoundsRun = o.StabilisationTime + 32
				} else {
					o.RoundsRun = c.MaxRounds
				}
				out.Trials = append(out.Trials, harness.Trial{Trial: t, Seed: rng.Int63(), Observation: o})
			}
			res.Scenarios = append(res.Scenarios, out)
		}
		s.campaigns = append(s.campaigns, res)
		for sh := 0; sh < shardsPer; sh++ {
			lo, hi := sh*trials/shardsPer, (sh+1)*trials/shardsPer
			part := &harness.Result{Campaign: res.Campaign, Seed: res.Seed}
			for _, sc := range res.Scenarios {
				part.Scenarios = append(part.Scenarios, harness.ScenarioResult{Name: sc.Name, Seed: sc.Seed, Trials: sc.Trials[lo:hi]})
			}
			path := filepath.Join(dir, fmt.Sprintf("compare-%d-shard-%d.ndjson", k, sh))
			if err := part.WriteNDJSONFile(path); err != nil {
				s.close()
				return nil, 0, err
			}
			s.shards = append(s.shards, storeShard{path: path, campaign: k, lo: lo, hi: hi})
		}
	}
	// Out-of-order ingestion with one shard ingested twice.
	order := rng.Perm(len(s.shards))
	dup := len(order) / 2
	order = append(order[:dup+1], append([]int{order[dup/2]}, order[dup+1:]...)...)

	// Query mix: alg and adversary filters, pooled queries and exact
	// per-scenario queries.
	algs := []string{"ecount", "ecount-chain", "theorem2", "figure2"}
	for _, a := range algs {
		pick := func() string { return advs[rng.Intn(len(advs))] }
		s.queries = append(s.queries,
			resultdb.Query{Algs: []string{a}, Adversaries: []string{pick(), pick()}},
			resultdb.Query{Algs: []string{a}, Adversaries: []string{pick()}, Pool: true},
			resultdb.Query{Algs: []string{a}, Fs: []int{3}, Adversaries: []string{pick()}},
			resultdb.Query{Scenario: s.scenarios[rng.Intn(len(s.scenarios))].name},
			resultdb.Query{Scenario: s.scenarios[rng.Intn(len(s.scenarios))].name, Pool: true},
		)
	}
	q := 0
	next := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = q % len(s.queries)
			q++
		}
		return out
	}
	seen := make([]bool, len(s.shards))
	for _, sh := range order {
		s.steps = append(s.steps, storeStep{shard: sh, again: seen[sh], queries: next(batch)})
		seen[sh] = true
	}
	s.steps = append(s.steps, storeStep{shard: -1, queries: next(cold)})
	s.expectAll()

	// Warm up on a scratch store.
	st, err := resultdb.Open(filepath.Join(dir, "warmup"))
	if err == nil {
		if _, err = st.IngestFile(s.shards[0].path); err == nil {
			_, err = st.Query(s.queries[0])
		}
	}
	if err != nil {
		s.close()
		return nil, 0, err
	}
	return s, build, os.RemoveAll(filepath.Join(dir, "warmup"))
}

func (s *storeRunner) pass(p int, rec *recorder, parent int64) error {
	dir := filepath.Join(s.dir, fmt.Sprintf("store-%d", p))
	defer os.RemoveAll(dir)
	// heap_live_mb is what the store adds to the live heap: the reading
	// after the cold queries, with every segment of the reopened store
	// cached, minus the reading before the store is opened.
	base := rec.liveHeap()
	st, err := s.open(dir, rec, parent)
	if err != nil {
		return err
	}
	for i, step := range s.steps {
		cold := step.shard < 0
		if cold {
			// The reopened store loads every segment on its first query,
			// which is reported apart from the warm query latencies.
			if st, err = s.open(dir, rec, parent); err != nil {
				return err
			}
		} else if !s.ingest(st, step, rec, parent) {
			continue
		}
		for j, q := range step.queries {
			s.query(st, i, q, step.want[j], rec, parent, !(cold && j == 0))
		}
	}
	rec.heapSample(rec.liveHeap() - base)
	rec.add("resultdb.segment_loads", float64(st.SegmentLoads()))
	return nil
}

// ingest ingests step's shard and checks that the store added every
// record, or found every record a duplicate when the shard was
// ingested before. It reports whether the call returned.
func (s *storeRunner) ingest(st *resultdb.Store, step storeStep, rec *recorder, parent int64) bool {
	path := s.shards[step.shard].path
	id, t0 := rec.tr.begin()
	start := time.Now()
	stats, err := st.IngestFile(path)
	d := time.Since(start)
	rec.tr.end("resultdb.ingest", id, parent, t0)
	if err != nil {
		rec.fail(err)
		return false
	}
	want := stats.Added
	if step.again {
		want = stats.Duplicates
	}
	rec.op(want == stats.Records && stats.Records > 0,
		fmt.Sprintf("ingest %s: %+v (already ingested: %v)", path, stats, step.again))
	rec.rate(float64(stats.Records) / d.Seconds())
	rec.mu.Lock()
	rec.counts["resultdb.dedup_records"] += float64(stats.Duplicates)
	rec.counts["resultdb.ingest_ms"] += float64(d) / float64(time.Millisecond)
	if stats.Segment != 0 {
		rec.counts["resultdb.segments"]++
	}
	rec.mu.Unlock()
	rec.fold("ingest %d: %+v", step.shard, stats)
	return true
}

func (s *storeRunner) open(dir string, rec *recorder, parent int64) (*resultdb.Store, error) {
	id, t0 := rec.tr.begin()
	start := time.Now()
	st, err := resultdb.Open(dir)
	rec.add("resultdb.open_ms", float64(time.Since(start))/float64(time.Millisecond))
	rec.add("resultdb.opens", 1)
	rec.tr.end("resultdb.open", id, parent, t0)
	return st, err
}

// expectAll computes the expected groups of every query in the
// sequence, which is the same in every pass, then drops the generated
// records: a store user keeps no copy of what the store holds, so the
// measured phase does not either.
func (s *storeRunner) expectAll() {
	ingested := make([]bool, len(s.shards))
	for i := range s.steps {
		step := &s.steps[i]
		if step.shard >= 0 {
			ingested[step.shard] = true
		}
		byQuery := map[int][]expectGroup{}
		step.want = make([][]expectGroup, len(step.queries))
		for j, q := range step.queries {
			if _, ok := byQuery[q]; !ok {
				byQuery[q] = s.expected(s.queries[q], ingested)
			}
			step.want[j] = byQuery[q]
		}
	}
	s.campaigns = nil
}

// query runs query qi after step and checks every returned group
// against want. warm queries are latency samples; the cold one is
// counted apart.
func (s *storeRunner) query(st *resultdb.Store, step, qi int, want []expectGroup, rec *recorder, parent int64, warm bool) {
	q := s.queries[qi]
	id, t0 := rec.tr.begin()
	start := time.Now()
	groups, err := st.Query(q)
	d := time.Since(start)
	rec.tr.end("resultdb.query", id, parent, t0)
	if err != nil {
		rec.fail(err)
		return
	}
	if warm {
		rec.latency(d)
	} else {
		rec.add("resultdb.cold_query_ms", float64(d)/float64(time.Millisecond))
	}
	why := ""
	if len(groups) != len(want) {
		why = fmt.Sprintf("query %+v: %d groups, want %d", q, len(groups), len(want))
	}
	for i := 0; why == "" && i < len(groups); i++ {
		g, w := groups[i], want[i]
		if g.Scenario != w.scenario || len(g.Records) != w.records || g.Stats != w.stats {
			why = fmt.Sprintf("query %+v group %d: %s with %d records %+v, want %s with %d records %+v",
				q, i, g.Scenario, len(g.Records), g.Stats, w.scenario, w.records, w.stats)
		}
	}
	rec.op(why == "", why)
	rec.fold("query %d/%d: %d groups", step, qi, len(groups))
}

// expected computes a query's groups from the generated records: per
// (campaign, scenario) in canonical order, or per scenario across
// campaigns when pooled, each aggregated with harness.Aggregate.
func (s *storeRunner) expected(q resultdb.Query, ingested []bool) []expectGroup {
	matches := func(sc storeScenario) bool {
		return (q.Scenario == "" || sc.name == q.Scenario) &&
			(len(q.Algs) == 0 || slices.Contains(q.Algs, sc.alg)) &&
			(len(q.Adversaries) == 0 || slices.Contains(q.Adversaries, sc.adv)) &&
			(len(q.Fs) == 0 || slices.Contains(q.Fs, sc.f))
	}
	// trials returns campaign k's ingested trials of scenario si.
	trials := func(k int, si int) []harness.Trial {
		var out []harness.Trial
		for i, sh := range s.shards {
			if ingested[i] && sh.campaign == k {
				out = append(out, s.campaigns[k].Scenarios[si].Trials[sh.lo:sh.hi]...)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Trial < out[j].Trial })
		return out
	}
	// The store orders sources by campaign seed (all share one name).
	canon := make([]int, len(s.campaigns))
	for k := range canon {
		canon[k] = k
	}
	sort.Slice(canon, func(i, j int) bool { return s.campaigns[canon[i]].Seed < s.campaigns[canon[j]].Seed })
	var groups []expectGroup
	add := func(name string, ts []harness.Trial) {
		if len(ts) > 0 {
			groups = append(groups, expectGroup{scenario: name, records: len(ts), stats: harness.Aggregate(ts)})
		}
	}
	if q.Pool {
		for si, sc := range s.scenarios {
			if !matches(sc) {
				continue
			}
			var pooled []harness.Trial
			for _, k := range canon {
				pooled = append(pooled, trials(k, si)...)
			}
			add(sc.name, pooled)
		}
		return groups
	}
	for _, k := range canon {
		for si, sc := range s.scenarios {
			if matches(sc) {
				add(sc.name, trials(k, si))
			}
		}
	}
	return groups
}

func (s *storeRunner) layers(rec *recorder, out map[string]float64, text *textLines) error {
	passes := float64(rec.passes)
	out["resultdb.segment_loads"] = rec.counts["resultdb.segment_loads"] / passes
	out["resultdb.dedup_records"] = rec.counts["resultdb.dedup_records"] / passes
	text.add("resultdb.open_ms", rec.counts["resultdb.open_ms"]/rec.counts["resultdb.opens"], "ms")
	text.add("resultdb.ingest_ms_per_segment", rec.counts["resultdb.ingest_ms"]/rec.counts["resultdb.segments"], "ms")
	text.add("resultdb.cold_query_ms", rec.counts["resultdb.cold_query_ms"]/passes, "ms")
	text.add("resultdb.query_ms_p50", percentile(rec.lat, 50), "ms")
	text.add("resultdb.query_ms_p99", percentile(rec.lat, 99), "ms")
	return nil
}
