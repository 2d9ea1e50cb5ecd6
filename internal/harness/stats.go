package harness

import "sort"

// Stats aggregates the trials of one scenario. Stabilisation-time
// statistics (Min/Max/Mean/Median/P95/P99) are computed over stabilised
// trials only, matching the historical RunMany convention; the
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

// Aggregate computes scenario statistics from a slice of trials by
// folding an aggregator over it.
func Aggregate(trials []Trial) Stats {
	var agg aggregator
	for _, tr := range trials {
		agg.Add(tr.Observation)
	}
	return agg.stats()
}

// aggregator folds Observations into Stats one trial at a time. Counts,
// sums and extrema fold in O(1) space; the exact quantiles require the
// stabilisation times themselves, so the accumulator retains 8 bytes
// per stabilised trial — the irreducible cost of exact percentiles.
// The zero aggregator is ready to use.
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

// stats finalises the accumulated statistics, sorting the retained
// times in place: the accumulator is spent.
func (a *aggregator) stats() Stats {
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
		sort.Float64s(a.times)
		st.MedianTime = Percentile(a.times, 50)
		st.P95Time = Percentile(a.times, 95)
		st.P99Time = Percentile(a.times, 99)
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
