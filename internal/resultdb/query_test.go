package resultdb

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/synchcount/synchcount/internal/harness"
)

// queryReference is Query as it was before the source index: each
// call rebuilds the sources from every segment group, re-parses every
// scenario name, and merges trials and sorted runs into fresh slices.
// It is the oracle TestQueryMatchesReference and
// FuzzQueryMatchesReference hold Query to.
func queryReference(s *Store, q Query) ([]Group, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadAll(); err != nil {
		return nil, err
	}

	// One source per stored (campaign, seed, scenario): its segment
	// groups in ingest order, trial sets disjoint by construction.
	type source struct {
		key  groupKey
		seed int64
		segs []*segGroup
	}
	sources := make(map[groupKey]*source)
	var order []groupKey
	for _, meta := range s.man.Segments {
		seg := s.segs[meta.ID]
		for gi := range seg.Groups {
			g := &seg.Groups[gi]
			k := groupKey{g.Campaign, g.CampaignSeed, g.Scenario}
			src, ok := sources[k]
			if !ok {
				src = &source{key: k, seed: g.ScenarioSeed}
				sources[k] = src
				order = append(order, k)
			}
			src.segs = append(src.segs, g)
		}
	}

	var matched []*source
	for _, k := range order {
		if q.matches(k, parseAxes(k.Scenario)) {
			matched = append(matched, sources[k])
		}
	}
	sort.Slice(matched, func(i, j int) bool {
		a, b := matched[i].key, matched[j].key
		if a.Campaign != b.Campaign {
			return a.Campaign < b.Campaign
		}
		if a.CampaignSeed != b.CampaignSeed {
			return a.CampaignSeed < b.CampaignSeed
		}
		return a.Scenario < b.Scenario
	})

	// Bucket sources into result groups: one per source, or one per
	// scenario name when pooling. Sources are already canonically
	// sorted, so bucket member order is canonical too.
	type bucket struct {
		scenario string
		srcs     []*source
	}
	var buckets []*bucket
	if q.Pool {
		idx := make(map[string]*bucket)
		for _, src := range matched {
			b, ok := idx[src.key.Scenario]
			if !ok {
				b = &bucket{scenario: src.key.Scenario}
				idx[src.key.Scenario] = b
				buckets = append(buckets, b)
			}
			b.srcs = append(b.srcs, src)
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i].scenario < buckets[j].scenario })
	} else {
		for _, src := range matched {
			buckets = append(buckets, &bucket{scenario: src.key.Scenario, srcs: []*source{src}})
		}
	}

	groups := make([]Group, 0, len(buckets))
	for _, b := range buckets {
		g := Group{
			Scenario:  b.scenario,
			Axes:      parseAxes(b.scenario),
			Campaigns: len(b.srcs),
		}
		if len(b.srcs) == 1 {
			g.Campaign = b.srcs[0].key.Campaign
			g.CampaignSeed = b.srcs[0].key.CampaignSeed
			g.ScenarioSeed = b.srcs[0].seed
		}
		var runs [][]float64
		for _, src := range b.srcs {
			merged := mergeTrials(src.segs)
			for _, tr := range merged {
				g.Records = append(g.Records, harness.TrialRecord{
					Campaign:     src.key.Campaign,
					CampaignSeed: src.key.CampaignSeed,
					Scenario:     src.key.Scenario,
					ScenarioSeed: src.seed,
					Trial:        tr,
				})
			}
			for _, sg := range src.segs {
				if len(sg.sortedTimes) > 0 {
					runs = append(runs, sg.sortedTimes)
				}
			}
		}
		g.Stats = foldStats(g.Records, mergeRuns(runs))
		groups = append(groups, g)
	}
	return groups, nil
}

// mergeTrials merges one source's per-segment trial lists — each
// sorted by trial index, mutually disjoint — into one ascending list.
func mergeTrials(segs []*segGroup) []harness.Trial {
	if len(segs) == 1 {
		return segs[0].Trials
	}
	lists := make([][]harness.Trial, len(segs))
	total := 0
	for i, sg := range segs {
		lists[i] = sg.Trials
		total += len(sg.Trials)
	}
	out := make([]harness.Trial, 0, total)
	for len(lists) > 0 {
		best := -1
		for i, l := range lists {
			if len(l) == 0 {
				continue
			}
			if best < 0 || l[0].Trial < lists[best][0].Trial {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][0])
		lists[best] = lists[best][1:]
		if len(lists[best]) == 0 {
			lists = append(lists[:best], lists[best+1:]...)
		}
	}
	return out
}

// mergeRuns merges ascending-sorted runs into one ascending slice by
// iterative pairwise merging — O(total · log k) for k runs, no re-sort
// of the pooled times. This is the query-time half of the store's
// quantile design: each segment keeps its group's times sorted once,
// and every later query only merges.
func mergeRuns(runs [][]float64) []float64 {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	for len(runs) > 1 {
		var next [][]float64
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				next = append(next, runs[i])
				break
			}
			next = append(next, mergeTwo(runs[i], runs[i+1]))
		}
		runs = next
	}
	return runs[0]
}

func mergeTwo(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0] <= b[0] {
			out = append(out, a[0])
			a = a[1:]
		} else {
			out = append(out, b[0])
			b = b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// queryScenarios are the fixture's scenario names: compare-style names
// carrying every axis, and flat and partial ones carrying few.
var queryScenarios = []string{
	"ecount/f=1/c=2/faults=1/silent",
	"ecount/f=3/c=8/faults=3/splitvote",
	"theorem2/f=1/c=2/faults=0/silent",
	"maxstep/n=8/f=0/c=8/faults=0/crash",
	"countsim",
	"liverun/seed=3",
}

// queryBatches returns the ingest batches the query differential draws
// from: per campaign, three contiguous trial ranges, the even and the
// odd trials (each overlapping the ranges), two scenarios whole, a
// range with one record altered (a conflict) and a range under another
// scenario seed (a seed conflict). Two campaigns share a name and two a
// seed, so sources sort on every key field.
func queryBatches() []*harness.Result {
	rng := rand.New(rand.NewSource(33))
	var batches []*harness.Result
	for _, c := range []struct {
		name string
		seed int64
	}{{"compare", 9}, {"compare", 5}, {"sweep", 5}} {
		full := &harness.Result{Campaign: c.name, Seed: c.seed}
		for si, name := range queryScenarios {
			sc := harness.ScenarioResult{Name: name, Seed: c.seed*100 + int64(si)}
			for t := 0; t < 24-3*si; t++ {
				o := harness.Observation{RoundsRun: 4096, Violations: uint64(rng.Intn(2)), MeanPulls: float64(rng.Intn(9)) / 4}
				if rng.Intn(6) > 0 {
					o.Stabilised = true
					o.StabilisationTime = uint64(rng.Intn(40)) // repeats: equal heads across runs
					o.RoundsRun = o.StabilisationTime + 32
				}
				sc.Trials = append(sc.Trials, harness.Trial{Trial: t, Seed: rng.Int63(), Observation: o})
			}
			full.Scenarios = append(full.Scenarios, sc)
		}
		part := func(keep func(si, trial int) bool, alter func(*harness.ScenarioResult)) *harness.Result {
			res := &harness.Result{Campaign: full.Campaign, Seed: full.Seed}
			for si, sc := range full.Scenarios {
				out := harness.ScenarioResult{Name: sc.Name, Seed: sc.Seed}
				for _, tr := range sc.Trials {
					if keep(si, tr.Trial) {
						out.Trials = append(out.Trials, tr)
					}
				}
				if len(out.Trials) > 0 {
					if alter != nil {
						alter(&out)
					}
					res.Scenarios = append(res.Scenarios, out)
				}
			}
			return res
		}
		for lo := 0; lo < 24; lo += 8 {
			batches = append(batches, part(func(_, t int) bool { return t >= lo && t < lo+8 }, nil))
		}
		batches = append(batches,
			part(func(_, t int) bool { return t%2 == 0 }, nil),
			part(func(_, t int) bool { return t%2 == 1 }, nil),
			part(func(si, _ int) bool { return si < 2 }, nil),
			part(func(_, t int) bool { return t >= 8 && t < 16 }, func(sc *harness.ScenarioResult) { sc.Trials[0].RoundsRun++ }),
			part(func(_, t int) bool { return t < 8 }, func(sc *harness.ScenarioResult) { sc.Seed++ }),
		)
	}
	return batches
}

// pickQuery draws a query from next, which returns a value in [0, n):
// each filter is set with probability about 1/3, to values that are
// stored and values that are not.
func pickQuery(next func(n int) int) Query {
	var q Query
	on := func() bool { return next(3) == 0 }
	if on() {
		q.Campaign = []string{"compare", "sweep", "absent"}[next(3)]
	}
	if on() {
		seed := []int64{5, 9, 7}[next(3)]
		q.CampaignSeed = &seed
	}
	if on() {
		q.Scenario = append(slices.Clone(queryScenarios), "absent")[next(len(queryScenarios)+1)]
	}
	if on() {
		for k := 1 + next(2); k > 0; k-- {
			q.Algs = append(q.Algs, []string{"ecount", "theorem2", "maxstep", "countsim", "liverun", "absent"}[next(6)])
		}
	}
	if on() {
		for k := 1 + next(2); k > 0; k-- {
			q.Fs = append(q.Fs, []int{0, 1, 3, -1}[next(4)])
		}
	}
	if on() {
		c := []int{2, 8, 5}[next(3)]
		q.C = &c
	}
	if on() {
		faults := []int{0, 1, 3}[next(3)]
		q.Faults = &faults
	}
	if on() {
		for k := 1 + next(2); k > 0; k-- {
			q.Adversaries = append(q.Adversaries, []string{"silent", "splitvote", "crash", "absent"}[next(4)])
		}
	}
	q.Pool = next(2) == 0
	return q
}

// queryDiff runs one sequence of ingests, queries and reopens on two
// stores: got through IngestResult and Query, want through
// ingestReference and queryReference. It keeps every answer Query gave
// with a deep copy taken when it was returned.
type queryDiff struct {
	t         testing.TB
	dir       string
	got, want *Store
	answers   [][]Group
	copies    [][]Group

	ingests, failed, duplicates, reopens int
	pooled, filtered                     int
}

func newQueryDiff(t testing.TB) *queryDiff {
	d := &queryDiff{t: t, dir: t.TempDir()}
	d.open()
	return d
}

// open opens both stores afresh, dropping every cached segment.
func (d *queryDiff) open() {
	d.t.Helper()
	var err error
	if d.got, err = Open(filepath.Join(d.dir, "got")); err != nil {
		d.t.Fatal(err)
	}
	if d.want, err = Open(filepath.Join(d.dir, "want")); err != nil {
		d.t.Fatal(err)
	}
}

func (d *queryDiff) ingest(res *harness.Result) {
	d.t.Helper()
	gs, gerr := d.got.IngestResult(res)
	ws, werr := ingestReference(d.want, res)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || gs != ws {
		d.t.Fatalf("ingest %d: IngestResult gave %+v, %v; reference %+v, %v", d.ingests, gs, gerr, ws, werr)
	}
	d.ingests++
	d.duplicates += gs.Duplicates
	if gerr != nil {
		d.failed++
	}
}

func (d *queryDiff) query(q Query) {
	d.t.Helper()
	got, gerr := d.got.Query(q)
	want, werr := queryReference(d.want, q)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		d.t.Fatalf("query %+v: error %v, reference %v", q, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				d.t.Fatalf("query %+v: group %d is\n%+v\nreference\n%+v", q, i, got[i], want[i])
			}
		}
		d.t.Fatalf("query %+v: %d groups, reference %d", q, len(got), len(want))
	}
	if q.Pool {
		d.pooled++
	}
	if len(got) > 0 && !reflect.DeepEqual(q, Query{Pool: q.Pool}) {
		d.filtered++
	}
	d.answers = append(d.answers, got)
	d.copies = append(d.copies, cloneGroups(got))
}

// checkAnswers fails unless every answer Query gave still equals the
// copy taken when it was returned: no later query or ingest may write
// into a slice a caller holds.
func (d *queryDiff) checkAnswers() {
	d.t.Helper()
	for i := range d.answers {
		if !reflect.DeepEqual(d.answers[i], d.copies[i]) {
			d.t.Fatalf("answer %d changed after it was returned", i)
		}
	}
}

func cloneGroups(groups []Group) []Group {
	out := slices.Clone(groups)
	for i := range out {
		out[i].Records = slices.Clone(out[i].Records)
	}
	return out
}

// step runs one operation drawn from next: mostly ingests and queries,
// now and then a reopen of both stores.
func (d *queryDiff) step(batches []*harness.Result, next func(n int) int) {
	d.t.Helper()
	switch op := next(20); {
	case op < 8:
		d.ingest(batches[next(len(batches))])
	case op < 19:
		d.query(pickQuery(next))
	default:
		d.open()
		d.reopens++
	}
}

// TestQueryMatchesReference runs seeded sequences of out-of-order and
// duplicate shard ingests over three campaigns, reopens and queries
// using every filter, pooled and not: Query must return exactly what
// queryReference returns, and no answer may change after it was
// returned.
func TestQueryMatchesReference(t *testing.T) {
	batches := queryBatches()
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := newQueryDiff(t)
			for i := 0; i < 300; i++ {
				d.step(batches, rng.Intn)
			}
			for _, q := range []Query{{}, {Pool: true}} {
				d.query(q)
			}
			d.checkAnswers()
			if d.reopens == 0 || d.failed == 0 || d.duplicates == 0 || d.pooled == 0 || d.filtered < 20 {
				t.Fatalf("sequence covered %d reopens, %d failed ingests, %d duplicate records, %d pooled and %d filtered non-empty queries; want some of each",
					d.reopens, d.failed, d.duplicates, d.pooled, d.filtered)
			}
		})
	}
}

// FuzzQueryMatchesReference drives the query differential from fuzz
// bytes: each byte choice picks an operation, a batch or a query's
// filters, so the fuzzer searches ingest orders and filter
// combinations for a disagreement or an answer that changes after it
// was returned.
func FuzzQueryMatchesReference(f *testing.F) {
	batches := queryBatches()
	f.Add([]byte{0, 0, 10, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 3, 0, 4, 0, 5, 10, 1, 1, 1, 1, 1, 1, 1, 1, 0, 19, 10, 2, 0, 0, 0})
	f.Add([]byte{0, 7, 0, 8, 0, 0, 0, 13, 10, 0, 2, 0, 1, 0, 2, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		d := newQueryDiff(t)
		for len(data) > 0 {
			d.step(batches, next)
		}
		d.query(Query{Pool: true})
		d.checkAnswers()
	})
}

// A store no ingest could write — one source twice in a segment, trial
// indices repeated across its groups, a group with no trials — still
// queries exactly as queryReference does: repeated indices come out in
// ingest order, and a source with no trials gives a group with nil
// Records.
func TestQueryMatchesReferenceOnHandEditedStore(t *testing.T) {
	dir := t.TempDir()
	// trials makes records of the given indices, told apart from other
	// groups' records of the same index by tag.
	trials := func(tag int64, idx ...int) []harness.Trial {
		var out []harness.Trial
		for _, i := range idx {
			out = append(out, refTrial(tag, "hand", i))
		}
		return out
	}
	group := func(scenario string, ts []harness.Trial) segGroup {
		return segGroup{Campaign: "camp", CampaignSeed: 1, Scenario: scenario, ScenarioSeed: 7, Trials: ts}
	}
	silent, split := "ecount/f=1/c=2/faults=1/silent", "ecount/f=1/c=2/faults=1/splitvote"
	segs := []*segment{
		{Schema: segmentSchema, ID: 1, Groups: []segGroup{group(silent, trials(1, 0, 2, 4)), group(silent, trials(2, 2, 3)), group(split, []harness.Trial{})}},
		{Schema: segmentSchema, ID: 2, Groups: []segGroup{group(silent, trials(3, 1, 2, 9))}},
	}
	man := manifest{Schema: storeSchema, NextSegment: 3}
	for _, seg := range segs {
		data, err := appendSegment(nil, seg)
		if err != nil {
			t.Fatal(err)
		}
		meta := segmentMeta{ID: seg.ID, File: segmentFileName(seg.ID), Groups: len(seg.Groups)}
		if err := os.WriteFile(filepath.Join(dir, meta.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		man.Segments = append(man.Segments, meta)
	}
	if err := writeJSONAtomic(filepath.Join(dir, manifestFile), man); err != nil {
		t.Fatal(err)
	}
	d := &queryDiff{t: t, dir: dir}
	var err error
	if d.got, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if d.want, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	for _, q := range []Query{{}, {Pool: true}, {Scenario: silent}, {Adversaries: []string{"splitvote"}}} {
		d.query(q)
	}
	d.checkAnswers()
	all := d.answers[0]
	if len(all) != 2 || len(all[0].Records) != 8 || all[1].Records != nil {
		t.Fatalf("hand-edited store gave %d groups: %+v", len(all), all)
	}
}
