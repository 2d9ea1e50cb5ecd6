package resultdb

import (
	"sort"

	"github.com/synchcount/synchcount/internal/harness"
)

// Query selects and groups stored trials. The zero Query matches
// everything, grouped per (campaign, campaign seed, scenario). String
// filters are exact; slice filters match any listed value; pointer
// filters pin one value. The axis filters (Algs, Fs, C, Faults,
// Adversaries) match against the axes parsed from scenario names — a
// scenario that does not carry a filtered axis never matches it.
type Query struct {
	// Campaign and CampaignSeed pin the campaign identity.
	Campaign     string
	CampaignSeed *int64
	// Scenario pins one scenario name exactly.
	Scenario string
	// Algs, Fs, C, Faults and Adversaries filter on parsed axes.
	Algs        []string
	Fs          []int
	C           *int
	Faults      *int
	Adversaries []string
	// Pool folds matching scenarios of the *same name* across distinct
	// campaigns into one group each — e.g. the pooled p99 of every
	// recorded "ecount/f=3/c=2/faults=3/silent" cell — instead of the
	// default per-campaign grouping.
	Pool bool
}

// Group is one aggregated query result: the matching trials of one
// scenario (of one campaign, or pooled across campaigns), with exact
// statistics over exactly those trials.
type Group struct {
	// Campaign and CampaignSeed identify the source campaign; both are
	// zero in a pooled group spanning more than one campaign (each
	// record still carries its own provenance).
	Campaign     string
	CampaignSeed int64
	// Scenario is the scenario name; ScenarioSeed its base seed (zero
	// in a pooled group whose sources disagree).
	Scenario     string
	ScenarioSeed int64
	// Axes are parsed from the scenario name.
	Axes Axes
	// Campaigns is how many (campaign, seed) sources contributed.
	Campaigns int
	// Records holds every trial in canonical order: sources by
	// (campaign, campaign seed), trials by ascending index. Each record
	// carries its full provenance and is re-ingestable.
	Records []harness.TrialRecord
	// Stats aggregates the records, byte-compatible with the harness:
	// folded in canonical record order, quantiles from the merged
	// per-segment sorted runs.
	Stats harness.Stats
}

// matches reports whether a stored group passes the query's filters.
func (q *Query) matches(k groupKey, ax Axes) bool {
	if q.Campaign != "" && k.Campaign != q.Campaign {
		return false
	}
	if q.CampaignSeed != nil && k.CampaignSeed != *q.CampaignSeed {
		return false
	}
	if q.Scenario != "" && k.Scenario != q.Scenario {
		return false
	}
	if len(q.Algs) > 0 && !containsString(q.Algs, ax.Alg) {
		return false
	}
	if len(q.Fs) > 0 && !containsInt(q.Fs, ax.F) {
		return false
	}
	if q.C != nil && ax.C != *q.C {
		return false
	}
	if q.Faults != nil && ax.Faults != *q.Faults {
		return false
	}
	if len(q.Adversaries) > 0 && !containsString(q.Adversaries, ax.Adversary) {
		return false
	}
	return true
}

func containsString(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Query answers q from the store. Segments load from disk at most once
// per Store lifetime — a repeated query, or a query after further
// ingests, aggregates from the in-memory cache and the per-segment
// sorted runs without rescanning cold segments (SegmentLoads pins
// this). Groups come back in canonical order: (campaign, campaign
// seed, scenario), or scenario name alone when pooling.
func (s *Store) Query(q Query) ([]Group, error) {
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

// foldStats computes harness.Stats over records in their given order,
// with the quantiles read off the pre-merged sorted run instead of
// collecting and re-sorting the times. The counts, extrema and sums
// replicate harness.Aggregate's per-trial fold exactly (the
// differential tests pin this), so for records in canonical order the
// result is byte-identical to harness.Aggregate.
func foldStats(records []harness.TrialRecord, sorted []float64) harness.Stats {
	var st harness.Stats
	var sumTime, sumRounds float64
	for _, rec := range records {
		o := rec.Observation
		if o.Stabilised {
			if st.Stabilised == 0 || o.StabilisationTime < st.MinTime {
				st.MinTime = o.StabilisationTime
			}
			if o.StabilisationTime > st.MaxTime {
				st.MaxTime = o.StabilisationTime
			}
			st.Stabilised++
			sumTime += float64(o.StabilisationTime)
		}
		if st.Trials == 0 || o.RoundsRun < st.MinRounds {
			st.MinRounds = o.RoundsRun
		}
		if o.RoundsRun > st.MaxRounds {
			st.MaxRounds = o.RoundsRun
		}
		st.Trials++
		sumRounds += float64(o.RoundsRun)
		st.Violations += o.Violations
		if o.MaxPulls > st.MaxPulls {
			st.MaxPulls = o.MaxPulls
		}
		if o.MessagesPerRound > st.MessagesPerRound {
			st.MessagesPerRound = o.MessagesPerRound
		}
		if o.BitsPerRound > st.BitsPerRound {
			st.BitsPerRound = o.BitsPerRound
		}
	}
	if st.Trials > 0 {
		st.MeanRounds = sumRounds / float64(st.Trials)
	}
	if st.Stabilised > 0 {
		st.MeanTime = sumTime / float64(st.Stabilised)
		st.MedianTime = harness.Percentile(sorted, 50)
		st.P95Time = harness.Percentile(sorted, 95)
		st.P99Time = harness.Percentile(sorted, 99)
	}
	return st
}
