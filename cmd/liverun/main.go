// Command liverun soaks a counting stack as a live concurrent service:
// n goroutine nodes running the unmodified registry algorithm over an
// in-process transport, with a deterministic seeded chaos schedule
// injecting crashes, restarts, message loss/corruption/duplication/
// delay, partitions and stragglers. It reports sustained rounds/sec,
// per-burst recovery latency against the stack's declared stabilisation
// bound, and a PASS/FAIL verdict; -ndjson writes harness trial records
// that internal/resultdb ingests like any campaign export.
//
// Examples:
//
//	liverun -alg ecount -n 32 -f 3 -c 8 -seed 7 -bursts 3
//	liverun -faults crash,loss,partition -bursts 2 -budget 30s -ndjson soak.ndjson
//	liverun -seed 7 -timeline            # print the fault schedule and exit
//	liverun -seeds 5 -ndjson sweep.ndjson  # 5 seeded soaks, one NDJSON stream
//	liverun -cpuprofile cpu.pprof        # pprof the soak's hot path
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/live"
	"github.com/synchcount/synchcount/internal/registry"
)

var out io.Writer = os.Stdout

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "liverun:", err)
		os.Exit(1)
	}
}

// liveFlags is the parsed flag set, separated from flag.Parse so the
// validation is unit-testable (mirroring pullbench's validateScaleFlags).
type liveFlags struct {
	algName                 string
	n, f, c                 int
	seed                    int64
	seeds                   int
	faults                  string
	warmup, burstLen, gap   uint64
	bursts, crashes         int
	loss, corrupt, dup, del float64
	delayBy                 uint64
	stall                   time.Duration
	rounds                  int64
	window                  int64
	timeout                 time.Duration
	budget                  time.Duration
	cpuprofile, memprofile  string
}

// validateFlags rejects nonsensical soak parameters with descriptive
// errors before any goroutine spawns. The chaos generator re-validates
// rates and shapes; this layer catches what only the CLI can see —
// negative counts that a silent clamp would turn into a soak that
// quietly tests nothing.
func validateFlags(fl *liveFlags) error {
	if fl.n < 2 {
		return fmt.Errorf("-n %d: a live network needs at least 2 nodes", fl.n)
	}
	if fl.f < 0 {
		return fmt.Errorf("-f %d is negative: resilience counts Byzantine nodes", fl.f)
	}
	if fl.c < 2 {
		return fmt.Errorf("-c %d: a counter modulus is at least 2", fl.c)
	}
	if fl.bursts < 0 {
		return fmt.Errorf("-bursts %d is negative: give 0 for a fault-free soak", fl.bursts)
	}
	if fl.crashes < 0 {
		return fmt.Errorf("-crashes %d is negative: give the crash/restart pairs per burst", fl.crashes)
	}
	if fl.rounds < 0 {
		return fmt.Errorf("-rounds %d is negative: give 0 to run the schedule's horizon", fl.rounds)
	}
	if fl.window < 0 {
		return fmt.Errorf("-window %d is negative: give 0 for the 2c+16 default", fl.window)
	}
	if fl.timeout <= 0 {
		return fmt.Errorf("-timeout %v: the per-round barrier deadline must be positive", fl.timeout)
	}
	if fl.budget < 0 {
		return fmt.Errorf("-budget %v is negative: give 0 to run the full horizon", fl.budget)
	}
	if fl.seeds < 1 {
		return fmt.Errorf("-seeds %d: a sweep needs at least one seed", fl.seeds)
	}
	if fl.cpuprofile != "" && fl.cpuprofile == fl.memprofile {
		return fmt.Errorf("-cpuprofile and -memprofile both name %q: the two profiles would overwrite each other", fl.cpuprofile)
	}
	return nil
}

func run() error {
	fl := &liveFlags{}
	flag.StringVar(&fl.algName, "alg", "ecount", "registry algorithm: "+strings.Join(registry.Names(), " | "))
	flag.IntVar(&fl.n, "n", 32, "nodes (each is one goroutine)")
	flag.IntVar(&fl.f, "f", 3, "resilience the stack is built for")
	flag.IntVar(&fl.c, "c", 8, "counter modulus")
	flag.Int64Var(&fl.seed, "seed", 1, "run seed: node states, coins and the chaos timeline all derive from it")
	flag.IntVar(&fl.seeds, "seeds", 1, "seeded soaks to run back to back (seeds seed..seed+K-1), all appended to one -ndjson stream")
	flag.StringVar(&fl.faults, "faults", "crash,loss,partition", "comma-separated chaos kinds: crash | loss | corrupt | dup | delay | partition | stall")
	flag.Uint64Var(&fl.warmup, "warmup", 0, "fault-free prefix rounds (0 = bound + window + 8)")
	flag.IntVar(&fl.bursts, "bursts", 3, "fault bursts to inject (0 = fault-free soak)")
	flag.Uint64Var(&fl.burstLen, "burst-len", 8, "rounds per burst")
	flag.Uint64Var(&fl.gap, "gap", 0, "fault-free recovery rounds after each burst (0 = bound + window + 8)")
	flag.IntVar(&fl.crashes, "crashes", 0, "crash/restart pairs per burst (0 with the crash kind = 1)")
	flag.Float64Var(&fl.loss, "loss", 0, "per-link drop probability in burst windows (0 with the loss kind = 0.15)")
	flag.Float64Var(&fl.corrupt, "corrupt", 0, "per-link corruption probability (0 with the corrupt kind = 0.05)")
	flag.Float64Var(&fl.dup, "dup", 0, "per-link duplication probability (0 with the dup kind = 0.10)")
	flag.Float64Var(&fl.del, "delay", 0, "per-link delay probability (0 with the delay kind = 0.10)")
	flag.Uint64Var(&fl.delayBy, "delay-by", 0, "rounds a delayed frame is held (0 with the delay kind = 2)")
	flag.DurationVar(&fl.stall, "stall", 0, "straggler sleep for the stall kind (must exceed -timeout)")
	flag.Int64Var(&fl.rounds, "rounds", 0, "round horizon (0 = the schedule's warmup+bursts+gaps)")
	flag.Int64Var(&fl.window, "window", 0, "confirmation window in rounds (0 = 2c+16)")
	flag.DurationVar(&fl.timeout, "timeout", time.Second, "per-round barrier deadline; a node missing it is counted faulty for the round")
	flag.DurationVar(&fl.budget, "budget", 0, "wall-clock budget (0 = run the full horizon)")
	timeline := flag.Bool("timeline", false, "print the deterministic chaos timeline and exit")
	ndjsonPath := flag.String("ndjson", "", "write harness trial records (one per fault burst) to this file for resultdb ingestion")
	flag.StringVar(&fl.cpuprofile, "cpuprofile", "", "write a CPU profile covering the soak(s) to this file")
	flag.StringVar(&fl.memprofile, "memprofile", "", "write a heap profile taken after the soak(s) to this file")
	flag.Parse()

	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: liverun takes flags only (flag parsing stops at the first bare word, so anything after it — including later flags — would be silently ignored)", flag.Arg(0))
	}
	if err := validateFlags(fl); err != nil {
		return err
	}

	a, err := registry.Build(fl.algName, registry.Params{N: fl.n, F: fl.f, C: fl.c})
	if err != nil {
		return err
	}
	bounded, ok := a.(alg.Bound)
	if !ok {
		return fmt.Errorf("algorithm %q declares no stabilisation bound; the soak verdict compares recovery latency against the bound, so pick a deterministic stack", fl.algName)
	}
	bound := bounded.StabilisationBound()
	window := uint64(fl.window)
	if window == 0 {
		window = live.DefaultWindowFor(a.C())
	}
	auto := bound + window + 8
	warmup, gap := fl.warmup, fl.gap
	if warmup == 0 {
		warmup = auto
	}
	if gap == 0 {
		gap = auto
	}

	makeSched := func(seed int64) (*live.Schedule, error) {
		return live.NewSchedule(live.ChaosConfig{
			Seed:        seed,
			N:           a.N(),
			Kinds:       splitList(fl.faults),
			Warmup:      warmup,
			Bursts:      fl.bursts,
			BurstLen:    fl.burstLen,
			Gap:         gap,
			Crashes:     fl.crashes,
			LossRate:    fl.loss,
			CorruptRate: fl.corrupt,
			DupRate:     fl.dup,
			DelayRate:   fl.del,
			DelayBy:     fl.delayBy,
			StallDur:    fl.stall,
		})
	}
	if *timeline {
		sched, err := makeSched(fl.seed)
		if err != nil {
			return err
		}
		return sched.WriteTimeline(out)
	}

	if fl.cpuprofile != "" {
		f, err := os.Create(fl.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	fmt.Fprintf(out, "stack       : %s (n=%d f=%d c=%d), declared bound T <= %d rounds, window %d\n",
		fl.algName, a.N(), a.F(), a.C(), bound, window)

	// The sweep runs fl.seeds soaks on consecutive seeds; the common
	// single-soak case is the K=1 sweep. Every soak's trials land in the
	// same -ndjson stream.
	var runs []soakRun
	var verdict error
	for k := 0; k < fl.seeds; k++ {
		seed := fl.seed + int64(k)
		sched, err := makeSched(seed)
		if err != nil {
			return err
		}
		rt, err := live.New(live.Config{
			Alg:          a,
			Seed:         seed,
			Rounds:       uint64(fl.rounds),
			Window:       window,
			RoundTimeout: fl.timeout,
			Schedule:     sched,
			WallBudget:   fl.budget,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "chaos       : seed %d, kinds [%s], %d bursts x %d rounds, gap %d, horizon %d rounds\n",
			seed, fl.faults, fl.bursts, fl.burstLen, gap, sched.Rounds)

		rep, runErr := rt.Run(context.Background())
		printReport(rep)
		if runErr != nil {
			return runErr
		}
		v := rep.CheckRecovery(bound)
		if v != nil {
			fmt.Fprintf(out, "verdict     : FAIL — %v\n", v)
			if verdict == nil {
				verdict = v
			}
		} else {
			fmt.Fprintf(out, "verdict     : PASS — every burst re-stabilised within the declared bound\n")
		}
		runs = append(runs, soakRun{seed: seed, rep: rep})
	}

	if *ndjsonPath != "" {
		if err := writeNDJSON(*ndjsonPath, fl, a, runs); err != nil {
			return err
		}
		fmt.Fprintf(out, "ndjson      : wrote %s\n", *ndjsonPath)
	}
	if fl.memprofile != "" {
		f, err := os.Create(fl.memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return verdict
}

// soakRun is one completed soak of a -seeds sweep.
type soakRun struct {
	seed int64
	rep  *live.Report
}

func printReport(rep *live.Report) {
	fmt.Fprintf(out, "throughput  : %d rounds in %v (%.0f rounds/sec sustained)\n",
		rep.Rounds, rep.Elapsed.Round(time.Millisecond), rep.RoundsPerSec)
	if rep.Stabilised {
		fmt.Fprintf(out, "stabilised  : first confirmed streak starts at round %d\n", rep.FirstStabilised)
	} else {
		fmt.Fprintf(out, "stabilised  : NO — no confirmed correct-counting streak\n")
	}
	for _, rec := range rep.Recoveries {
		status := "confirmed"
		if !rec.Confirmed {
			status = "UNCONFIRMED"
		}
		fmt.Fprintf(out, "recovery    : burst %d last fault at round %d, counting again at round %d (latency %d rounds, %s)\n",
			rec.Burst, rec.FaultRound, rec.RecoveredAt, rec.Latency, status)
	}
	fmt.Fprintf(out, "chaos hits  : %d crashes, %d restarts, %d stalls, %d dropped, %d corrupted, %d duplicated, %d delayed, %d partition-suppressed\n",
		rep.Crashes, rep.Restarts, rep.Stalls, rep.Dropped, rep.Corrupted, rep.Duplicated, rep.Delayed, rep.Suppressed)
	fmt.Fprintf(out, "health      : %d node-rounds past deadline, %d stale messages, %d stale batches, %d control drops, %d decode rejections, %d violations\n",
		rep.TimedOutRounds, rep.StaleMessages, rep.StaleBatches, rep.ControlDrops, rep.DecodeErrors, rep.Violations)
	if rep.BudgetExhausted {
		fmt.Fprintf(out, "budget      : wall-clock budget exhausted before the scripted horizon\n")
	}
}

// writeNDJSON exports the sweep as harness trial records: one trial per
// fault burst, with stabilisation_time carrying the recovery latency in
// rounds (so resultdb's stabilisation-time statistics become recovery-
// latency statistics), or a single trial per fault-free soak. The
// scenario name carries the alg/n/f/c axes plus a "live" tag, matching
// the axis grammar resultdb parses; a multi-seed sweep appends a
// seed=<s> axis so each soak is its own scenario under one campaign
// (resultdb requires one campaign+campaign-seed per stream — the base
// seed — while the per-scenario seed is the soak's own).
func writeNDJSON(path string, fl *liveFlags, a alg.Algorithm, runs []soakRun) error {
	n := uint64(a.N())
	scenario := fmt.Sprintf("%s/n=%d/f=%d/c=%d/live", fl.algName, a.N(), a.F(), a.C())
	return harness.AtomicWriteFile(path, func(w io.Writer) error {
		sink := harness.NDJSONSink(w)
		for _, run := range runs {
			rec := harness.TrialRecord{
				Campaign:     "liverun",
				CampaignSeed: fl.seed,
				Scenario:     scenario,
				ScenarioSeed: run.seed,
			}
			if len(runs) > 1 {
				rec.Scenario = fmt.Sprintf("%s/seed=%d", scenario, run.seed)
			}
			rep := run.rep
			emit := func(trial int, stab bool, stabTime uint64) error {
				rec.Trial = harness.Trial{
					Trial: trial,
					Seed:  run.seed,
					Observation: harness.Observation{
						Stabilised:        stab,
						StabilisationTime: stabTime,
						RoundsRun:         rep.Rounds,
						Violations:        rep.Violations,
						MessagesPerRound:  n * (n - 1),
						BitsPerRound:      n * (n - 1) * live.FrameBits,
					},
				}
				return sink.Emit(rec)
			}
			if len(rep.Recoveries) == 0 {
				if err := emit(0, rep.Stabilised, rep.FirstStabilised); err != nil {
					return err
				}
				continue
			}
			for i, burst := range rep.Recoveries {
				if err := emit(i, burst.Confirmed, burst.Latency); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok != "" {
			out = append(out, tok)
		}
	}
	return out
}
