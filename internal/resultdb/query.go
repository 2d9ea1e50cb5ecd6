package resultdb

import (
	"math"
	"slices"
	"strings"

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
	// in a pooled group of more than one source).
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
// this). It reads the store's source index, which caches each
// (campaign, campaign seed, scenario)'s segment groups, scenario seed
// and parsed axes, and the sources in canonical order; the index grows
// by each segment as it is loaded or ingested. Groups come back in
// canonical order: (campaign, campaign seed, scenario), or scenario
// name alone when pooling.
func (s *Store) Query(q Query) ([]Group, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadAll(); err != nil {
		return nil, err
	}

	var matched []*source
	for _, src := range s.idx.sorted {
		if q.matches(src.key, src.axes) {
			matched = append(matched, src)
		}
	}
	// Pooling folds the sources of one scenario name into one group; a
	// stable sort by name keeps each group's sources canonical.
	if q.Pool {
		slices.SortStableFunc(matched, func(a, b *source) int { return strings.Compare(a.key.Scenario, b.key.Scenario) })
	}
	groups := make([]Group, 0, len(matched))
	for i := 0; i < len(matched); {
		j := i + 1
		for q.Pool && j < len(matched) && matched[j].key.Scenario == matched[i].key.Scenario {
			j++
		}
		groups = append(groups, s.aggregate(matched[i:j]))
		i = j
	}
	return groups, nil
}

// aggregate builds the group of srcs, which share one scenario name and
// come in canonical order. Callers hold s.mu.
func (s *Store) aggregate(srcs []*source) Group {
	first := srcs[0]
	g := Group{
		Scenario:  first.key.Scenario,
		Axes:      first.axes,
		Campaigns: len(srcs),
	}
	if len(srcs) == 1 {
		g.Campaign = first.key.Campaign
		g.CampaignSeed = first.key.CampaignSeed
		g.ScenarioSeed = first.seed
	}
	records, times := 0, 0
	s.runs = s.runs[:0]
	for _, src := range srcs {
		for _, sg := range src.groups {
			records += len(sg.Trials)
			if len(sg.sortedTimes) > 0 {
				s.runs = append(s.runs, sg.sortedTimes)
				times += len(sg.sortedTimes)
			}
		}
	}
	if records > 0 {
		g.Records = make([]harness.TrialRecord, 0, records)
		for _, src := range srcs {
			g.Records = appendRecords(g.Records, src)
		}
	}
	var sorted []float64
	switch len(s.runs) {
	case 0:
	case 1:
		sorted = s.runs[0] // read in place, never appended to
	default:
		if cap(s.times) < times {
			s.times = make([]float64, 0, times)
		}
		s.times = mergeSortedRuns(s.times[:0], s.runs)
		sorted = s.times
	}
	g.Stats = foldStats(g.Records, sorted)
	return g
}

// appendRecords appends src's trials to dst as records, ascending by
// trial index: one k-way merge over its segment groups, each ascending
// already. Equal indices, which only a hand-edited store can hold, come
// out in ingest order. Whole stretches of one group are copied at a
// time, so groups holding disjoint trial ranges merge in O(groups²).
func appendRecords(dst []harness.TrialRecord, src *source) []harness.TrialRecord {
	rec := harness.TrialRecord{
		Campaign:     src.key.Campaign,
		CampaignSeed: src.key.CampaignSeed,
		Scenario:     src.key.Scenario,
		ScenarioSeed: src.seed,
	}
	var buf [16][]harness.Trial
	lists := buf[:0]
	for _, sg := range src.groups {
		if len(sg.Trials) > 0 {
			lists = append(lists, sg.Trials)
		}
	}
	for len(lists) > 0 {
		best := 0
		for i := 1; i < len(lists); i++ {
			if lists[i][0].Trial < lists[best][0].Trial {
				best = i
			}
		}
		// The best list keeps winning while its trials stay below every
		// earlier list's head and no greater than every later one's.
		below, upTo := math.MaxInt, math.MaxInt
		for i, l := range lists {
			switch {
			case i < best:
				below = min(below, l[0].Trial)
			case i > best:
				upTo = min(upTo, l[0].Trial)
			}
		}
		l := lists[best]
		n := 1
		for n < len(l) && l[n].Trial < below && l[n].Trial <= upTo {
			n++
		}
		for _, tr := range l[:n] {
			rec.Trial = tr
			dst = append(dst, rec)
		}
		if n < len(l) {
			lists[best] = l[n:]
		} else {
			lists = append(lists[:best], lists[best+1:]...)
		}
	}
	return dst
}

// mergeSortedRuns appends the merge of ascending runs to dst, ascending:
// a binary min-heap over the runs' heads, so O(total · log k) for k
// runs, with no re-sort of the pooled times. This is the query-time
// half of the store's quantile design: each segment keeps its group's
// times sorted once, and every later query only merges. The runs slice
// is reordered and its elements resliced; the runs' contents are only
// read.
func mergeSortedRuns(dst []float64, runs [][]float64) []float64 {
	h := runs
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && h[c+1][0] < h[c][0] {
				c++
			}
			if h[i][0] <= h[c][0] {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		r := h[0]
		dst = append(dst, r[0])
		if len(r) > 1 {
			h[0] = r[1:]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return dst
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
