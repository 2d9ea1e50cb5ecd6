package harness

import "sort"

// Stats aggregates the trials of one scenario. Stabilisation-time
// statistics (Min/Max/Mean/Median/P95/P99) are computed over stabilised
// trials only, matching the historical sim.Stats convention; the
// remaining fields aggregate over all trials.
type Stats struct {
	// Trials is the number of trials run.
	Trials int `json:"trials"`
	// Stabilised is the number of trials that stabilised.
	Stabilised int `json:"stabilised"`
	// MinTime and MaxTime bound the measured stabilisation times.
	MinTime uint64 `json:"min_time"`
	MaxTime uint64 `json:"max_time"`
	// MeanTime, MedianTime, P95Time and P99Time summarise the
	// distribution of stabilisation times.
	MeanTime   float64 `json:"mean_time"`
	MedianTime float64 `json:"median_time"`
	P95Time    float64 `json:"p95_time"`
	P99Time    float64 `json:"p99_time"`
	// MinRounds/MeanRounds/MaxRounds summarise how many rounds the
	// trials actually simulated (early-stopping runs end sooner).
	MinRounds  uint64  `json:"min_rounds"`
	MeanRounds float64 `json:"mean_rounds"`
	MaxRounds  uint64  `json:"max_rounds"`
	// Violations is the total post-stabilisation violation count across
	// all trials — the empirical failure counter of Corollary 4.
	Violations uint64 `json:"violations"`
	// MaxPulls is the worst per-node pulling-model message complexity
	// observed in any trial (zero for broadcast runs).
	MaxPulls uint64 `json:"max_pulls"`
	// MessagesPerRound and BitsPerRound report the largest per-round
	// load observed in any trial.
	MessagesPerRound uint64 `json:"messages_per_round"`
	BitsPerRound     uint64 `json:"bits_per_round"`
}

// Aggregate computes scenario statistics from a slice of trials. It is
// an aggregator folded over the slice; streaming consumers fold trial
// by trial instead of materialising the slice.
func Aggregate(trials []Trial) Stats {
	var agg aggregator
	for _, tr := range trials {
		agg.Add(tr.Observation)
	}
	// The throwaway accumulator's times may be sorted in place — no
	// caller sees it again, and the copy Stats makes would double the
	// cost of aggregating million-trial scenarios.
	return agg.stats(true)
}

// aggregator folds Observations into Stats incrementally, one trial at
// a time and in any grouping: folding a scenario's trials in one pass
// and folding each shard's slice then combining the accumulators with
// Merge produce identical statistics. Counts, sums and extrema fold in
// O(1) space; the exact quantiles require the stabilisation times
// themselves, so the accumulator retains 8 bytes per stabilised trial
// — the irreducible cost of exact percentiles.
//
// The zero aggregator is ready to use. It is not safe for concurrent
// use; the campaign engine serialises all sink emissions, so a sink
// folding into one needs no locking.
type aggregator struct {
	trials     int
	stabilised int
	minTime    uint64
	maxTime    uint64
	sumTime    float64
	times      []float64
	minRounds  uint64
	maxRounds  uint64
	sumRounds  float64
	violations uint64
	maxPulls   uint64
	messages   uint64
	bits       uint64
}

// Add folds one trial's observation into the accumulator.
func (a *aggregator) Add(o Observation) {
	if o.Stabilised {
		if a.stabilised == 0 || o.StabilisationTime < a.minTime {
			a.minTime = o.StabilisationTime
		}
		if o.StabilisationTime > a.maxTime {
			a.maxTime = o.StabilisationTime
		}
		a.stabilised++
		a.sumTime += float64(o.StabilisationTime)
		a.times = append(a.times, float64(o.StabilisationTime))
	}
	if a.trials == 0 || o.RoundsRun < a.minRounds {
		a.minRounds = o.RoundsRun
	}
	if o.RoundsRun > a.maxRounds {
		a.maxRounds = o.RoundsRun
	}
	a.trials++
	a.sumRounds += float64(o.RoundsRun)
	a.violations += o.Violations
	if o.MaxPulls > a.maxPulls {
		a.maxPulls = o.MaxPulls
	}
	if o.MessagesPerRound > a.messages {
		a.messages = o.MessagesPerRound
	}
	if o.BitsPerRound > a.bits {
		a.bits = o.BitsPerRound
	}
}

// Merge folds another accumulator into a. Counts, extrema and
// quantiles (which are sorted before use) are exactly those of a
// single-pass fold; the floating-point sums behind the means are added
// shard-wise, so they can differ from a single-pass fold in the last
// ulp. Byte-exact shard reassembly therefore goes through
// harness.Merge, which re-aggregates from the trial records in
// canonical order; this method is for live dashboards folding partial
// streams.
func (a *aggregator) Merge(b *aggregator) {
	if b.trials == 0 {
		return
	}
	if a.trials == 0 || b.minRounds < a.minRounds {
		a.minRounds = b.minRounds
	}
	if b.maxRounds > a.maxRounds {
		a.maxRounds = b.maxRounds
	}
	if b.stabilised > 0 {
		if a.stabilised == 0 || b.minTime < a.minTime {
			a.minTime = b.minTime
		}
		if b.maxTime > a.maxTime {
			a.maxTime = b.maxTime
		}
	}
	a.trials += b.trials
	a.stabilised += b.stabilised
	a.sumTime += b.sumTime
	a.times = append(a.times, b.times...)
	a.sumRounds += b.sumRounds
	a.violations += b.violations
	if b.maxPulls > a.maxPulls {
		a.maxPulls = b.maxPulls
	}
	if b.messages > a.messages {
		a.messages = b.messages
	}
	if b.bits > a.bits {
		a.bits = b.bits
	}
}

// Stats finalises the accumulated statistics. The accumulator remains
// usable — more observations may be added and Stats called again.
func (a *aggregator) Stats() Stats { return a.stats(false) }

func (a *aggregator) stats(sortInPlace bool) Stats {
	st := Stats{
		Trials:           a.trials,
		Stabilised:       a.stabilised,
		MinTime:          a.minTime,
		MaxTime:          a.maxTime,
		MinRounds:        a.minRounds,
		MaxRounds:        a.maxRounds,
		Violations:       a.violations,
		MaxPulls:         a.maxPulls,
		MessagesPerRound: a.messages,
		BitsPerRound:     a.bits,
	}
	if a.trials > 0 {
		st.MeanRounds = a.sumRounds / float64(a.trials)
	}
	if a.stabilised > 0 {
		st.MeanTime = a.sumTime / float64(a.stabilised)
		times := a.times
		if !sortInPlace {
			times = make([]float64, len(a.times))
			copy(times, a.times)
		}
		sort.Float64s(times)
		st.MedianTime = Percentile(times, 50)
		st.P95Time = Percentile(times, 95)
		st.P99Time = Percentile(times, 99)
	}
	return st
}

// Percentile returns the q-th percentile (q in [0,100]) of an
// ascending-sorted slice, using linear interpolation between closest
// ranks: for n values the rank of q is r = q/100·(n−1), and the result
// interpolates between sorted[⌊r⌋] and sorted[⌈r⌉]. This is the
// "inclusive" definition used by most numerical libraries; Percentile
// of an empty slice is 0.
func Percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 100 {
		return sorted[n-1]
	}
	r := q / 100 * float64(n-1)
	lo := int(r)
	frac := r - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
