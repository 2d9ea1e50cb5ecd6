package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/campaigncli"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/live"
	"github.com/synchcount/synchcount/internal/registry"
)

// runLiverun is `synchcount liverun`: it soaks a counting stack as a
// live concurrent service — n goroutine nodes running the unmodified
// registry algorithm over an in-process transport, with a deterministic
// seeded chaos schedule injecting crashes, restarts, message
// loss/corruption/duplication/delay, partitions and stragglers. It
// reports sustained rounds/sec, per-burst recovery latency against the
// stack's declared stabilisation bound, and a PASS/FAIL verdict;
// -ndjson writes harness trial records that internal/resultdb ingests
// like any campaign export.
//
//	synchcount liverun -alg ecount -n 32 -f 3 -c 8 -seed 7 -bursts 3
//	synchcount liverun -faults crash,loss,partition -bursts 2 -budget 30s -ndjson soak.ndjson
//	synchcount liverun -seed 7 -timeline              # print the fault schedule and exit
//	synchcount liverun -seeds 5 -ndjson sweep.ndjson  # 5 seeded soaks, one NDJSON stream
//	synchcount liverun -cpuprofile cpu.pprof          # pprof the soak's hot path
func runLiverun(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("liverun", flag.ContinueOnError)
	var (
		algName    = fs.String("alg", "ecount", "registry algorithm: "+strings.Join(registry.Names(), " | "))
		n          = campaigncli.AtLeast(fs, "n", 32, 2, "nodes (each is one goroutine)")
		f          = campaigncli.AtLeast(fs, "f", 3, 0, "resilience the stack is built for")
		c          = campaigncli.AtLeast(fs, "c", 8, 2, "counter modulus")
		baseSeed   = fs.Int64("seed", 1, "run seed: node states, coins and the chaos timeline all derive from it")
		seeds      = campaigncli.AtLeast(fs, "seeds", 1, 1, "seeded soaks to run back to back (seeds seed..seed+K-1), all appended to one -ndjson stream")
		faults     = fs.String("faults", "crash,loss,partition", "comma-separated chaos kinds: crash | loss | corrupt | dup | delay | partition | stall")
		warmup     = fs.Uint64("warmup", 0, "fault-free prefix rounds (0 = bound + window + 8)")
		bursts     = campaigncli.AtLeast(fs, "bursts", 3, 0, "fault bursts to inject (0 = fault-free soak)")
		burstLen   = fs.Uint64("burst-len", 8, "rounds per burst")
		gap        = fs.Uint64("gap", 0, "fault-free recovery rounds after each burst (0 = bound + window + 8)")
		crashes    = campaigncli.AtLeast(fs, "crashes", 0, 0, "crash/restart pairs per burst (0 with the crash kind = 1)")
		loss       = fs.Float64("loss", 0, "per-link drop probability in burst windows (0 with the loss kind = 0.15)")
		corrupt    = fs.Float64("corrupt", 0, "per-link corruption probability (0 with the corrupt kind = 0.05)")
		dup        = fs.Float64("dup", 0, "per-link duplication probability (0 with the dup kind = 0.10)")
		delay      = fs.Float64("delay", 0, "per-link delay probability (0 with the delay kind = 0.10)")
		delayBy    = fs.Uint64("delay-by", 0, "rounds a delayed frame is held (0 with the delay kind = 2)")
		stall      = fs.Duration("stall", 0, "straggler sleep for the stall kind (must exceed -timeout)")
		rounds     = campaigncli.AtLeast(fs, "rounds", int64(0), 0, "round horizon (0 = the schedule's warmup+bursts+gaps)")
		windowFlag = campaigncli.AtLeast(fs, "window", int64(0), 0, "confirmation window in rounds (0 = 2c+16)")
		timeout    = campaigncli.AtLeast(fs, "timeout", time.Second, 1, "per-round barrier deadline; a node missing it is counted faulty for the round")
		budget     = campaigncli.AtLeast(fs, "budget", time.Duration(0), 0, "wall-clock budget (0 = run the full horizon)")
		timeline   = fs.Bool("timeline", false, "print the deterministic chaos timeline and exit")
		ndjsonPath = fs.String("ndjson", "", "write harness trial records (one per fault burst) to this file for resultdb ingestion")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile covering the soak(s) to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the soak(s) to this file")
	)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *cpuprofile != "" && *cpuprofile == *memprofile {
		return fmt.Errorf("-cpuprofile and -memprofile both name %q: the two profiles would overwrite each other", *cpuprofile)
	}

	a, err := registry.Build(*algName, registry.Params{N: *n, F: *f, C: *c})
	if err != nil {
		return err
	}
	bounded, ok := a.(alg.Bound)
	if !ok {
		return fmt.Errorf("algorithm %q declares no stabilisation bound; the soak verdict compares recovery latency against the bound, so pick a deterministic stack", *algName)
	}
	bound := bounded.StabilisationBound()
	window := uint64(*windowFlag)
	if window == 0 {
		window = live.DefaultWindowFor(a.C())
	}
	auto := bound + window + 8
	if *warmup == 0 {
		*warmup = auto
	}
	if *gap == 0 {
		*gap = auto
	}

	makeSched := func(seed int64) (*live.Schedule, error) {
		return live.NewSchedule(live.ChaosConfig{
			Seed:        seed,
			N:           a.N(),
			Kinds:       campaigncli.List(*faults),
			Warmup:      *warmup,
			Bursts:      *bursts,
			BurstLen:    *burstLen,
			Gap:         *gap,
			Crashes:     *crashes,
			LossRate:    *loss,
			CorruptRate: *corrupt,
			DupRate:     *dup,
			DelayRate:   *delay,
			DelayBy:     *delayBy,
			StallDur:    *stall,
		})
	}
	if *timeline {
		sched, err := makeSched(*baseSeed)
		if err != nil {
			return err
		}
		return sched.WriteTimeline(out)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
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
		*algName, a.N(), a.F(), a.C(), bound, window)

	// The sweep runs -seeds soaks on consecutive seeds; the common
	// single-soak case is the K=1 sweep. Every soak's trials land in the
	// same -ndjson stream.
	var runs []soakRun
	var verdict error
	for k := 0; k < *seeds; k++ {
		seed := *baseSeed + int64(k)
		sched, err := makeSched(seed)
		if err != nil {
			return err
		}
		rt, err := live.New(live.Config{
			Alg:          a,
			Seed:         seed,
			Rounds:       uint64(*rounds),
			Window:       window,
			RoundTimeout: *timeout,
			Schedule:     sched,
			WallBudget:   *budget,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "chaos       : seed %d, kinds [%s], %d bursts x %d rounds, gap %d, horizon %d rounds\n",
			seed, *faults, *bursts, *burstLen, *gap, sched.Rounds)

		rep, runErr := rt.Run(context.Background())
		printReport(out, rep)
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
		if err := writeNDJSON(*ndjsonPath, *algName, *baseSeed, a, runs); err != nil {
			return err
		}
		fmt.Fprintf(out, "ndjson      : wrote %s\n", *ndjsonPath)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
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

func printReport(out io.Writer, rep *live.Report) {
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
	fmt.Fprintf(out, "health      : %d node-rounds past deadline, %d stale messages, %d stale batches, %d control drops, %d decode rejections, %d violations, %d shared steps\n",
		rep.TimedOutRounds, rep.StaleMessages, rep.StaleBatches, rep.ControlDrops, rep.DecodeErrors, rep.Violations, rep.SharedSteps)
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
func writeNDJSON(path, algName string, baseSeed int64, a alg.Algorithm, runs []soakRun) error {
	n := uint64(a.N())
	scenario := fmt.Sprintf("%s/n=%d/f=%d/c=%d/live", algName, a.N(), a.F(), a.C())
	return harness.AtomicWriteFile(path, func(w io.Writer) error {
		sink := harness.NDJSONSink(w)
		for _, run := range runs {
			rec := harness.TrialRecord{
				Campaign:     "liverun",
				CampaignSeed: baseSeed,
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
