package main

import (
	"context"
	"fmt"
	"time"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/live"
	"github.com/synchcount/synchcount/internal/registry"
)

// liveSoak is one scripted soak: its seed, its chaos schedule (nil for
// a fault-free soak of rounds rounds) and whether the soak contract of
// Report.CheckRecovery applies.
type liveSoak struct {
	seed   int64
	sched  *live.Schedule
	rounds uint64
	check  bool
}

func (s liveSoak) horizon() uint64 {
	if s.rounds > 0 {
		return s.rounds
	}
	return s.sched.Rounds
}

// liveRunner drives live.Runtime soaks back to back; a pass is one run
// through the prepared soaks.
type liveRunner struct {
	e     *env
	stack string
	a     alg.Algorithm
	bound uint64
	soaks []liveSoak
}

func (l *liveRunner) close() {}

func (l *liveRunner) pass(p int, rec *recorder, parent int64) error {
	for _, s := range l.soaks {
		l.soak(s, rec, parent)
	}
	return nil
}

// soak runs one soak, timing every round through Config.OnRound.
func (l *liveRunner) soak(s liveSoak, rec *recorder, parent int64) {
	var gaps []float64
	var start, last time.Time
	var firstRound time.Duration
	mid := s.horizon() / 2
	rt, err := live.New(live.Config{
		Alg: l.a, Seed: s.seed, Rounds: s.rounds, Schedule: s.sched,
		OnRound: func(round uint64, _ bool, _ int, _ int) {
			now := time.Now()
			if last.IsZero() {
				firstRound = now.Sub(start)
			} else {
				gaps = append(gaps, float64(now.Sub(last))/float64(time.Millisecond))
			}
			last = now
			if round == mid {
				// Every node has reported the round and waits for the
				// next handoff: the runtime is quiescent but holds its
				// arenas and views. The collection stays out of the
				// next round's gap.
				rec.settleHeap()
				last = time.Now()
			}
		},
	})
	if err != nil {
		rec.fail(err)
		return
	}
	id, t0 := rec.tr.begin()
	start = time.Now()
	rep, err := rt.Run(context.Background())
	rec.tr.end("live.soak", id, parent, t0)
	if err != nil {
		rec.fail(fmt.Errorf("soak seed %d: %w", s.seed, err))
		return
	}
	why := ""
	switch {
	case rep.Rounds != s.horizon() || rep.BudgetExhausted:
		why = fmt.Sprintf("soak seed %d ran %d of %d rounds", s.seed, rep.Rounds, s.horizon())
	case s.check:
		if err := rep.CheckRecovery(l.bound); err != nil {
			why = fmt.Sprintf("soak seed %d: %v", s.seed, err)
		}
	}
	rec.op(why == "", why)

	injected := rep.Crashes + rep.Restarts + rep.Stalls + rep.Dropped + rep.Corrupted + rep.Duplicated + rep.Delayed + rep.Suppressed
	rec.mu.Lock()
	rec.lat = append(rec.lat, gaps...)
	rec.work += float64(rep.Rounds) * float64(l.a.N())
	for _, r := range rep.Recoveries {
		rec.recoveries = append(rec.recoveries, float64(r.Latency))
	}
	rec.counts["live.timed_out_node_rounds"] += float64(rep.TimedOutRounds)
	rec.counts["live.control_drops"] += float64(rep.ControlDrops)
	rec.counts["live.stale_messages"] += float64(rep.StaleMessages)
	rec.counts["live.decode_rejections"] += float64(rep.DecodeErrors)
	rec.counts["live.injected_faults"] += float64(injected)
	rec.counts["live.first_round_ms"] += float64(firstRound) / float64(time.Millisecond)
	rec.counts["live.soaks"]++
	rec.mu.Unlock()
	rec.fold("%d:%d/%d/%v/%d", s.seed, rep.Rounds, rep.Violations, rep.Recoveries, injected)
}

func (l *liveRunner) layers(rec *recorder, out map[string]float64, text *textLines) error {
	// Per soak, so the counts do not grow with the number of passes the
	// traced half fits in.
	soaks := rec.counts["live.soaks"]
	for _, name := range []string{"live.timed_out_node_rounds", "live.control_drops", "live.stale_messages", "live.decode_rejections", "live.injected_faults"} {
		out[name] = rec.counts[name] / soaks
	}
	out["live.recovery_rounds_p50"] = percentile(rec.recoveries, 50)
	out["live.recovery_rounds_p95"] = percentile(rec.recoveries, 95)
	p50 := percentile(rec.lat, 50)
	text.add("live.round_us_p50", p50*1000, "us")
	text.add("live.round_us_p99", percentile(rec.lat, 99)*1000, "us")
	text.add("live.first_round_ms", rec.counts["live.first_round_ms"]/soaks, "ms")

	// The live nodes call the per-node Step on their own view; probe it
	// on this build, fault-free as the nodes run between bursts.
	pc, err := newProbeCase(l.a, nil, adversary.Silent{}, l.e.seed, l.e.short)
	if err != nil {
		return err
	}
	_, nodeNs, err := pc.step()
	if err != nil {
		return err
	}
	text.add("alg.node_step_ns."+l.stack+".live_build", nodeNs, "ns")
	// The n Step calls of a round share the CPUs, so the share is of
	// the CPU time a median round offers.
	out["live.step_share"] = float64(l.a.N()) * nodeNs / (p50 * 1e6 * float64(l.e.workers))
	return nil
}

// newLive builds the stack and its declared bound.
func newLive(e *env, stack string, p registry.Params) (*liveRunner, time.Duration, error) {
	start := time.Now()
	a, err := registry.Build(stack, p)
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(start)
	b, ok := a.(alg.Bound)
	if !ok {
		return nil, 0, fmt.Errorf("%s declares no stabilisation bound", stack)
	}
	return &liveRunner{e: e, stack: stack, a: a, bound: b.StabilisationBound()}, build, nil
}

// schedule makes a burst schedule whose warm-up and recovery gaps are
// the bound plus the confirmation window plus slack, as liverun does.
func (l *liveRunner) schedule(seed int64, kinds []string, bursts int) (*live.Schedule, error) {
	auto := l.bound + live.DefaultWindowFor(l.a.C()) + 8
	return live.NewSchedule(live.ChaosConfig{
		Seed: seed, N: l.a.N(), Kinds: kinds,
		Warmup: auto, Bursts: bursts, BurstLen: 8, Gap: auto,
	})
}

// setupLiveEngine soaks maxstep, whose Step is nearly free, so the
// round engine (router, arena, barriers) dominates; 128 node goroutines
// on few cores put scheduler effects into the tail. Fault-free soaks
// alternate with soaks under every deterministic chaos kind (stall is
// wall-clock driven and left out).
func setupLiveEngine(e *env) (runner, time.Duration, error) {
	l, build, err := newLive(e, "maxstep", registry.Params{N: 128, C: 8})
	if err != nil {
		return nil, 0, err
	}
	soaks, rounds := 8, uint64(600)
	if e.short {
		soaks, rounds = 2, 60
	}
	for i := 0; i < soaks; i++ {
		s := liveSoak{seed: e.seed + int64(i)}
		if i%2 == 0 {
			s.rounds = rounds
		} else if s.sched, err = l.schedule(s.seed, []string{"crash", "loss", "corrupt", "dup", "delay", "partition"}, 3); err != nil {
			return nil, 0, err
		}
		l.soaks = append(l.soaks, s)
	}
	l.soak(l.soaks[0], newRecorder(nil), 0)
	return l, build, nil
}

// setupLiveEcount soaks the O(f) ecount stack under crash, loss,
// partition and corruption bursts, where Step rather than the engine
// should dominate; every soak must pass Report.CheckRecovery against
// the declared bound.
func setupLiveEcount(e *env) (runner, time.Duration, error) {
	l, build, err := newLive(e, "ecount", registry.Params{N: 32, F: 3, C: 8})
	if err != nil {
		return nil, 0, err
	}
	soaks, bursts := 4, 4
	if e.short {
		soaks, bursts = 1, 1
	}
	for i := 0; i < soaks; i++ {
		s := liveSoak{seed: e.seed + int64(i), check: true}
		if s.sched, err = l.schedule(s.seed, []string{"crash", "loss", "partition", "corrupt"}, bursts); err != nil {
			return nil, 0, err
		}
		l.soaks = append(l.soaks, s)
	}
	l.soak(l.soaks[0], newRecorder(nil), 0)
	return l, build, nil
}
