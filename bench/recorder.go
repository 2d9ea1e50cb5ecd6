package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
	"unsafe"

	"github.com/synchcount/synchcount/internal/harness"
)

// recorder accumulates what one measured phase observed. Workloads call
// it from worker goroutines, the campaign sink and live OnRound hooks,
// so every method locks.
type recorder struct {
	mu sync.Mutex
	tr *tracer // nil when the phase is untraced

	attempted, failed int
	firstFailure      string

	lat  []float64 // per-operation latency samples, ms
	work float64   // node-rounds completed, for the per-pass rate

	heap     []metrics.Sample
	heapLive []float64 // heap_live_mb samples, bytes
	// settleTime is the time spent in liveHeap's forced collections; it
	// is not part of the measured wall time.
	settleTime time.Duration

	// rates are work-rate samples: one per pass for the workloads that
	// count rec.work, one per ingest for the store. Their median is
	// work_per_s, which a slow spell on a shared machine moves less than
	// the rate of the whole phase.
	rates  []float64
	passes int

	// counts are per-layer counters and sums, keyed by metric name.
	counts map[string]float64
	// recoveries are live per-burst recovery latencies, in rounds.
	recoveries []float64
	// trials are per-trial samples the traced run attributes to layers;
	// they are kept only when keepTrials is set.
	trials     []trialSample
	keepTrials bool

	// digest folds every scheduling-independent outcome in the order the
	// workload produced it; two runs with one seed must agree on it.
	digest uint64
}

// trialSample is one simulator trial as the campaign workloads saw it.
type trialSample struct {
	scenario string
	rounds   uint64
	dur      time.Duration
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{
		tr:         tr,
		keepTrials: tr != nil,
		counts:     map[string]float64{},
		heap:       []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
		digest:     fnvOffset,
	}
}

const fnvOffset = 14695981039346656037

// op records one attempted operation and whether its output checked.
func (r *recorder) op(ok bool, why string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if r.firstFailure == "" {
			r.firstFailure = why
		}
	}
}

// fail records an operation that returned an error.
func (r *recorder) fail(err error) { r.op(false, err.Error()) }

func (r *recorder) latency(d time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, float64(d)/float64(time.Millisecond))
	r.mu.Unlock()
}

func (r *recorder) addWork(units float64) {
	r.mu.Lock()
	r.work += units
	r.mu.Unlock()
}

func (r *recorder) add(name string, v float64) {
	r.mu.Lock()
	r.counts[name] += v
	r.mu.Unlock()
}

// fold mixes one deterministic outcome into the run digest.
func (r *recorder) fold(format string, args ...any) {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	r.mu.Lock()
	r.digest = (r.digest ^ h.Sum64()) * 1099511628211
	r.mu.Unlock()
}

// settleHeap records the live heap as one heap_live_mb sample.
// Workloads call it once per pass or soak at a point where no
// operation is in flight but the layer's state is still held (the
// memo, a live runtime between rounds); the median sample is
// heap_live_mb. A collection during busy work would count everything
// allocated while it marks as live, which makes that reading swing
// with GC timing. The median, unlike the largest sample, does not
// creep with the number of passes a run fits in.
func (r *recorder) settleHeap() { r.heapSample(r.liveHeap()) }

// heapSample records bytes as one heap_live_mb sample.
func (r *recorder) heapSample(bytes float64) {
	r.mu.Lock()
	r.heapLive = append(r.heapLive, bytes)
	r.mu.Unlock()
}

// liveHeap forces a full collection and returns the live heap it
// marked, in bytes. The recorder's own sample buffers grow with the run
// and are not the program's memory, so their capacity is subtracted.
func (r *recorder) liveHeap() float64 {
	start := time.Now()
	// The second collection frees what the first only moved to the
	// sync.Pool victim caches, so the reading does not depend on how
	// many pooled scratch buffers the last operations left behind.
	runtime.GC()
	runtime.GC()
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics.Read(r.heap)
	var live float64
	if v := r.heap[0].Value; v.Kind() == metrics.KindUint64 {
		own := uint64(8*(cap(r.lat)+cap(r.recoveries)+cap(r.heapLive)+cap(r.rates))) +
			uint64(cap(r.trials))*uint64(unsafe.Sizeof(trialSample{}))
		live = float64(v.Uint64() - min(own, v.Uint64()))
	}
	r.settleTime += time.Since(start)
	return live
}

// passMark is the recorder's state when a pass began.
type passMark struct {
	start  time.Time
	work   float64
	settle time.Duration
}

func (r *recorder) markPass() passMark {
	r.mu.Lock()
	defer r.mu.Unlock()
	return passMark{time.Now(), r.work, r.settleTime}
}

// endPass counts the pass begun at m and, if it counted node-rounds,
// records its rate over its wall time without the forced collections.
func (r *recorder) endPass(m passMark) {
	wall := time.Since(m.start)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.passes++
	if r.work > m.work {
		r.rates = append(r.rates, (r.work-m.work)/(wall-(r.settleTime-m.settle)).Seconds())
	}
}

func (r *recorder) rate(v float64) {
	r.mu.Lock()
	r.rates = append(r.rates, v)
	r.mu.Unlock()
}

// mergeOps folds another phase's operation counts into r; the traced run
// reports both of its halves as attempted.
func (r *recorder) mergeOps(o *recorder) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
}

// percentile returns the q-th percentile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return harness.Percentile(xs, q)
}

func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// finite replaces a NaN or infinite value (an empty ratio) by 0, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// span is one timed call into a layer, as written to the trace file.
// Start and End are nanoseconds since the traced phase began.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced phases pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and start time.
func (t *tracer) begin() (int64, time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return id, time.Now()
}

// end closes span id, opened at start, under parent (0 for a root).
func (t *tracer) end(name string, id, parent int64, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its child spans cover. Children that
// overlap each other (parallel workers) are counted once.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, reach), min(k.End, s.End)
			if to > from {
				covered += to - from
				reach = to
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// total returns the summed duration of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}
