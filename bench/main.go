// Command bench is the repository's end-to-end benchmark. Each run
// drives one workload as a closed loop in one process: operations run
// back to back (campaign trials on one worker per CPU), the output of
// every operation is checked, and the run prints one "name value unit"
// line per metric followed by a one-line JSON summary.
//
//	bash bench/run.sh --workload campaign-byzantine --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload live-ecount --seed 1 --trace 1 --trace-out spans.json
//	bash bench/run.sh agree A.ndjson B.ndjson
//
// With --trace 0 the summary carries the end-to-end metrics; with
// --trace 1 the run spends half its time untraced and half recording
// spans around the calls into each layer, then runs the layer probes,
// and the summary carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, on every
// workload; BENCHMARK.json lists the same names with their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"work_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"heap_live_mb", "MiB"},
}

// probeStacks and probeAdversaries are the fixed inputs of the layer
// probes every traced run makes, whatever its workload.
var (
	probeStacks      = []string{"ecount", "ecount-chain", "theorem2", "figure2", "maxstep"}
	probeAdversaries = []string{"equivocate", "random", "silent", "splitvote"}
)

// perLayer are the metrics every traced run reports. A layer the
// workload does not touch reports 0 for its shares and counts; the
// probes measure their layer on fixed inputs in every run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace_overhead_frac", "frac"},
		{"registry.build_ms", "ms"},
		{"harness.busy_frac", "frac"},
		{"sim.ff_speedup", "x"},
		{"sim.memo_hit_ratio", "ratio"},
		{"sim.memo_entries", "count"},
		{"sim.detector_ns_per_round", "ns"},
		{"alg.step_share", "frac"},
		{"adversary.row_share", "frac"},
		{"live.step_share", "frac"},
		{"live.timed_out_node_rounds", "count"},
		{"live.control_drops", "count"},
		{"live.stale_messages", "count"},
		{"live.decode_rejections", "count"},
		{"live.injected_faults", "count"},
		{"live.recovery_rounds_p50", "rounds"},
		{"live.recovery_rounds_p95", "rounds"},
		{"resultdb.segment_loads", "count"},
		{"resultdb.dedup_records", "count"},
	}
	for _, s := range probeStacks {
		defs = append(defs, metricDef{"alg.step_ns_per_node." + s, "ns"}, metricDef{"alg.node_step_ns." + s, "ns"})
	}
	for _, a := range probeAdversaries {
		defs = append(defs, metricDef{"adversary.row_ns_per_receiver." + a, "ns"})
	}
	return defs
}()

// options is one parsed invocation. short and passes exist for the
// tests: short shrinks every input, and passes > 0 replaces the time
// budget by a fixed number of passes.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	workRoot string
	short    bool
	passes   int
}

// env is what a workload's set-up receives.
type env struct {
	seed    int64
	short   bool
	workers int
	workDir string
}

// runner is a set-up workload. pass runs one closed-loop pass and
// records into rec, with parent as the span its layer calls nest
// under; layers adds the traced run's workload-specific per-layer
// metrics to out and workload-specific extras to text.
type runner interface {
	pass(p int, rec *recorder, parent int64) error
	layers(rec *recorder, out map[string]float64, text *textLines) error
	close()
}

// workload is one traffic mix. setup builds the algorithms, makes the
// inputs from the seed and warms up, returning the registry build time
// separately.
type workload struct {
	name  string
	setup func(e *env) (runner, time.Duration, error)
}

var workloads = []workload{
	{"campaign-byzantine", setupCampaign},
	{"verify-tail", setupVerifyTail},
	{"live-engine", setupLiveEngine},
	{"live-ecount", setupLiveEcount},
	{"results-store", setupStore},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// metric is one value of the JSON summary.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON summary printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	digest uint64 // scheduling-independent outcomes, for the tests
}

// textLines collects the "name value unit" lines a run prints.
type textLines struct{ lines []string }

func (t *textLines) add(name string, v float64, unit string, note ...string) {
	line := fmt.Sprintf("%s %.6g %s", name, v, unit)
	if len(note) > 0 {
		line += " " + strings.Join(note, " ")
	}
	t.lines = append(t.lines, line)
}

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "agree" {
		return agreeCLI(args[1:], stdout, stderr)
	}
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var text textLines
	res, err := run(o, &text)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, l := range text.lines {
		fmt.Fprintln(stdout, l)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	o := options{workRoot: filepath.Join(".bench_build", "work")}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.StringVar(&o.traceOut, "trace-out", "", "with --trace 1, write the recorded spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, err := findWorkload(o.workload); err != nil {
		return o, err
	}
	if !(o.seconds > 0 && o.seconds <= 600) {
		return o, fmt.Errorf("--seconds %g: give a length in (0, 600]", o.seconds)
	}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace %d: give 0 or 1", *trace)
	}
	o.trace = *trace == 1
	if o.traceOut != "" && !o.trace {
		return o, errors.New("--trace-out needs --trace 1")
	}
	return o, nil
}

// run sets the workload up several times (setup_s is the median),
// then measures it and returns the summary. text receives the lines
// printed before the summary.
func run(o options, text *textLines) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	var traceFile *os.File
	if o.traceOut != "" {
		// Open before any work so an unwritable path fails at once.
		f, err := os.Create(o.traceOut)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		traceFile = f
	}
	if err := os.MkdirAll(o.workRoot, 0o755); err != nil {
		return nil, err
	}
	workDir, err := os.MkdirTemp(o.workRoot, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	e := &env{seed: o.seed, short: o.short, workers: runtime.NumCPU(), workDir: workDir}
	reps := 7
	if o.short {
		reps = 1
	}
	var setups, builds []float64
	var r runner
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
		}
		// Every set-up starts from a collected heap, not from the
		// previous one's garbage.
		runtime.GC()
		start := time.Now()
		rr, build, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		builds = append(builds, float64(build)/float64(time.Millisecond))
		r = rr
	}
	defer r.close()

	budget := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: map[string]metric{}}
	var rec *recorder
	if !o.trace {
		rec = measure(r, o, nil, budget)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["work_per_s"] = metric{median(rec.rates), "1/s"}
		res.Metrics["latency_ms_p50"] = metric{percentile(rec.lat, 50), "ms"}
		res.Metrics["latency_ms_p99"] = metric{percentile(rec.lat, 99), "ms"}
		res.Metrics["heap_live_mb"] = metric{median(rec.heapLive) / (1 << 20), "MiB"}
		text.add("latency_samples", float64(len(rec.lat)), "count")
		text.add("passes", float64(rec.passes), "count")
		text.add("rate_samples", float64(len(rec.rates)), "count")
	} else {
		plain := measure(r, o, nil, budget/2)
		tr := newTracer()
		rec = measure(r, o, tr, budget/2)
		rec.mergeOps(plain)
		vals := map[string]float64{}
		for _, d := range perLayer {
			vals[d.name] = 0
		}
		vals["trace_overhead_frac"] = 1 - median(rec.rates)/median(plain.rates)
		vals["registry.build_ms"] = median(builds)
		if err := universalProbes(o.seed, o.short, vals); err != nil {
			return nil, err
		}
		if err := r.layers(rec, vals, text); err != nil {
			return nil, err
		}
		selfs := tr.selfTimes()
		names := make([]string, 0, len(selfs))
		for name := range selfs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			text.add(name+".self_ms", float64(selfs[name])/float64(time.Millisecond), "ms")
		}
		for _, d := range perLayer {
			res.Metrics[d.name] = metric{finite(vals[d.name]), d.unit}
		}
		if traceFile != nil {
			if err := json.NewEncoder(traceFile).Encode(struct {
				Workload string `json:"workload"`
				Seed     int64  `json:"seed"`
				Spans    []span `json:"spans"`
			}{o.workload, o.seed, tr.spans}); err != nil {
				return nil, err
			}
			if err := traceFile.Close(); err != nil {
				return nil, err
			}
		}
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.failed == 0 && rec.attempted > 0
	res.digest = rec.digest
	if rec.firstFailure != "" {
		fmt.Fprintln(os.Stderr, "bench: first failure:", rec.firstFailure)
	}
	text.add("failed_frac", float64(rec.failed)/float64(max(rec.attempted, 1)), "frac",
		fmt.Sprintf("attempted=%d", rec.attempted))
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		text.add(name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	return res, nil
}

// measure runs passes back to back until the budget is spent (always
// finishing the pass in progress, and at least one), or exactly
// o.passes passes when that is set.
func measure(r runner, o options, tr *tracer, budget time.Duration) *recorder {
	runtime.GC()
	rec := newRecorder(tr)
	start := time.Now()
	for p := 0; ; p++ {
		if o.passes > 0 {
			if p >= o.passes {
				break
			}
		} else if p > 0 && time.Since(start) >= budget {
			break
		}
		id, t0 := tr.begin()
		m := rec.markPass()
		if err := r.pass(p, rec, id); err != nil {
			rec.fail(err)
		}
		rec.endPass(m)
		tr.end("bench.pass", id, 0, t0)
	}
	return rec
}
