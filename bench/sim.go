package main

import (
	"context"
	"fmt"
	"time"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
)

// simCell is one scenario of a simulator workload.
type simCell struct {
	stack  string
	params registry.Params
	n      int
	faults int
	adv    string
	bound  uint64
	// horizon is the RunFull length every trial must report; 0 for
	// runs that stop at confirmation.
	horizon uint64
}

// simRunner drives a simulator workload: each pass streams one harness
// campaign whose trials are checked as they are emitted.
type simRunner struct {
	e     *env
	cells map[string]simCell
	// campaign builds pass p's campaign. oneTrial keeps trial 0 of each
	// scenario only; noFF turns fast-forward off; memo is shared by the
	// pass's trials (nil with noFF).
	campaign func(p int, oneTrial, noFF bool, memo *harness.TrajectoryMemo) (harness.Campaign, error)
}

// passSeed derives pass p's campaign seed from the run seed.
func passSeed(seed int64, p int) int64 { return seed*1_000_003 + int64(p) }

func (s *simRunner) close() {}

func (s *simRunner) pass(p int, rec *recorder, parent int64) error {
	memo := harness.NewTrajectoryMemo(0)
	camp, err := s.campaign(p, false, false, memo)
	if err != nil {
		return err
	}
	id, t0 := rec.tr.begin()
	s.instrument(&camp, rec, id)
	err = camp.Stream(context.Background(), harness.SinkFunc(func(t harness.TrialRecord) error {
		s.check(t, rec)
		return nil
	}))
	rec.tr.end("harness.stream", id, parent, t0)
	rec.settleHeap()
	hits, misses, _ := memo.Stats()
	rec.add("sim.memo_hits", float64(hits))
	rec.add("sim.memo_lookups", float64(hits+misses))
	rec.add("sim.memo_entries", float64(memo.Len()))
	return err
}

// instrument wraps every Scenario.Run (registry closure plus sim.Run or
// RunFull) with a latency sample and a sim.trial span.
func (s *simRunner) instrument(camp *harness.Campaign, rec *recorder, parent int64) {
	for i := range camp.Scenarios {
		sc := &camp.Scenarios[i]
		orig, name := sc.Run, sc.Name
		sc.Run = func(ctx context.Context, trial int, seed int64) (harness.Observation, error) {
			id, t0 := rec.tr.begin()
			start := time.Now()
			obs, err := orig(ctx, trial, seed)
			d := time.Since(start)
			rec.tr.end("sim.trial", id, parent, t0)
			rec.latency(d)
			if rec.keepTrials {
				rec.mu.Lock()
				rec.trials = append(rec.trials, trialSample{scenario: name, rounds: obs.RoundsRun, dur: d})
				rec.mu.Unlock()
			}
			return obs, err
		}
	}
}

// check is the correctness rule of a trial: it stabilised within the
// declared bound, with no violation, over the whole horizon for RunFull
// tails.
func (s *simRunner) check(t harness.TrialRecord, rec *recorder) {
	c := s.cells[t.Scenario]
	o := t.Observation
	why := ""
	if !(o.Stabilised && o.StabilisationTime <= c.bound && o.Violations == 0 && (c.horizon == 0 || o.RoundsRun == c.horizon)) {
		why = fmt.Sprintf("%s trial %d: stabilised=%v at %d (bound %d), %d violations, %d rounds",
			t.Scenario, t.Trial.Trial, o.Stabilised, o.StabilisationTime, c.bound, o.Violations, o.RoundsRun)
	}
	rec.op(why == "", why)
	rec.addWork(float64(o.RoundsRun) * float64(c.n))
	rec.fold("%s/%d:%v/%d/%d/%d", t.Scenario, t.Trial.Trial, o.Stabilised, o.StabilisationTime, o.RoundsRun, o.Violations)
}

func (s *simRunner) layers(rec *recorder, out map[string]float64, text *textLines) error {
	var busy time.Duration
	for _, t := range rec.trials {
		busy += t.dur
	}
	out["harness.busy_frac"] = busy.Seconds() / (rec.tr.total("harness.stream").Seconds() * float64(s.e.workers))
	out["sim.memo_hit_ratio"] = rec.counts["sim.memo_hits"] / rec.counts["sim.memo_lookups"]
	out["sim.memo_entries"] = rec.counts["sim.memo_entries"] / float64(rec.passes)
	text.add("harness.trial_ms_p50", percentile(rec.lat, 50), "ms")
	text.add("harness.trial_ms_p99", percentile(rec.lat, 99), "ms")

	speedup, err := s.ffSpeedup()
	if err != nil {
		return err
	}
	out["sim.ff_speedup"] = speedup

	// Attribute trial time to the adversary rows and the batch step on
	// the trials that simulate every round (fast-forward stands down
	// under period-0 adversaries), using probes on each cell's own build
	// and adversary.
	type estimate struct{ alg, row, trial float64 }
	perAdv := map[string]*estimate{}
	var all estimate
	for name, c := range s.cells {
		adv, err := adversary.ByName(c.adv)
		if err != nil {
			return err
		}
		if _, ff := adversary.SnapshotPeriodOf(adv); ff {
			continue
		}
		a, err := registry.Build(c.stack, c.params)
		if err != nil {
			return err
		}
		pc, err := newProbeCase(a, strided(0, c.n, c.faults), adv, s.e.seed, s.e.short)
		if err != nil {
			return err
		}
		stepNs, _, err := pc.step()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rowNs, err := pc.row(adv, s.e.seed)
		if err != nil {
			return err
		}
		est := perAdv[c.adv]
		if est == nil {
			est = &estimate{}
			perAdv[c.adv] = est
		}
		for _, t := range rec.trials {
			if t.scenario != name {
				continue
			}
			receivers := float64(t.rounds) * float64(pc.correct())
			for _, e := range []*estimate{est, &all} {
				e.alg += receivers * stepNs
				e.row += receivers * rowNs
				e.trial += float64(t.dur)
			}
		}
	}
	out["alg.step_share"] = all.alg / all.trial
	out["adversary.row_share"] = all.row / all.trial
	for adv, e := range perAdv {
		text.add("adversary.row_share."+adv, finite(e.row/e.trial), "frac")
		text.add("alg.step_share."+adv, finite(e.alg/e.trial), "frac")
	}
	return nil
}

// ffSpeedup runs trial 0 of every scenario of pass 0 with fast-forward
// (and a fresh memo) and without, and returns the ratio of the summed
// trial times.
func (s *simRunner) ffSpeedup() (float64, error) {
	var took [2]time.Duration
	for i, noFF := range []bool{false, true} {
		var memo *harness.TrajectoryMemo
		if !noFF {
			memo = harness.NewTrajectoryMemo(0)
		}
		camp, err := s.campaign(0, true, noFF, memo)
		if err != nil {
			return 0, err
		}
		rec := newRecorder(nil)
		rec.keepTrials = true
		s.instrument(&camp, rec, 0)
		if _, err := camp.Run(context.Background()); err != nil {
			return 0, err
		}
		for _, t := range rec.trials {
			took[i] += t.dur
		}
	}
	return took[1].Seconds() / took[0].Seconds(), nil
}

// warmUp runs trial 0 of every scenario once, so the measured phase
// starts with warm scratch pools and caches.
func (s *simRunner) warmUp() error {
	camp, err := s.campaign(0, true, false, harness.NewTrajectoryMemo(0))
	if err != nil {
		return err
	}
	_, err = camp.Run(context.Background())
	return err
}

// setupCampaign is a Byzantine-adversary stress grid, not a replay of
// observed traffic: the cells of registry compare grids, with their
// strided fault placement, run under the equivocate and random
// adversaries and stop at confirmation. cmd/compare defaults to silent
// and splitvote, and none of the repository's compare calls uses these
// two. Both have snapshot period 0, so fast-forward stands down and
// kernel stepping, adversary rows and the detector do the work.
//
// The trial counts are chosen for steady quantiles, not taken from any
// real campaign: each reported quantile falls in the middle of one class
// of similar trials, never on the gap between two classes, where it
// jumps with the seed. 40 trials (f=3 equivocate, figure2) run in under
// 2 ms, 40 ecount f=7 equivocate trials take about 4 ms and hold the
// median, and 39 random trials take 15-35 ms and hold the 99th
// percentile. Random runs only on the f=3 cells: one f=7 random trial
// takes about 250 ms, too few per run for a steady rate.
func setupCampaign(e *env) (runner, time.Duration, error) {
	type grid struct {
		spec   registry.CompareSpec
		trials map[string]int
	}
	grids := []grid{
		{registry.CompareSpec{Algs: []string{"ecount", "ecount-chain", "theorem2"}, Fs: []int{3}},
			map[string]int{"equivocate": 10, "random": 13}},
		{registry.CompareSpec{Algs: []string{"ecount"}, Fs: []int{7}}, map[string]int{"equivocate": 40}},
		{registry.CompareSpec{Algs: []string{"figure2"}}, map[string]int{"equivocate": 10}},
	}
	if e.short {
		grids = grids[:1]
		grids[0].trials = map[string]int{"equivocate": 1, "random": 1}
	}
	s := &simRunner{e: e, cells: map[string]simCell{}}
	s.campaign = func(p int, oneTrial, noFF bool, memo *harness.TrajectoryMemo) (harness.Campaign, error) {
		out := harness.Campaign{Name: "compare", Seed: passSeed(e.seed, p), Workers: e.workers}
		for _, adv := range []string{"equivocate", "random"} {
			for _, g := range grids {
				spec := g.spec
				if g.trials[adv] == 0 {
					continue
				}
				spec.C, spec.Adversaries, spec.Trials = 8, []string{adv}, g.trials[adv]
				if oneTrial {
					spec.Trials = 1
				}
				spec.Seed, spec.Workers, spec.NoFastForward, spec.Memo = out.Seed, e.workers, noFF, memo
				camp, cells, err := spec.Campaign()
				if err != nil {
					return out, err
				}
				out.Scenarios = append(out.Scenarios, camp.Scenarios...)
				for _, c := range cells {
					s.cells[c.ScenarioName(adv)] = simCell{
						stack: c.Alg, params: registry.Params{F: c.F, C: c.C},
						n: c.N, faults: c.Faults, adv: adv, bound: c.Bound,
					}
				}
			}
		}
		return out, nil
	}
	start := time.Now()
	if _, err := s.campaign(0, false, false, nil); err != nil {
		return nil, 0, err
	}
	build := time.Since(start)
	return s, build, s.warmUp()
}

// setupVerifyTail is the long-horizon verification traffic: RunFull
// tails under the period-1 silent and splitvote adversaries, where
// fast-forward does most of the work and the kernel little. It is the
// pair to campaign-byzantine. Each pass shares one fresh trajectory
// memo; at this horizon no cycle confirms, so the memo fills but never
// hits.
//
// As in setupCampaign, the trial counts keep the quantiles inside one
// class, and they give the 99th percentile more than ten samples beyond
// it in a run: the 72 ecount n=16 tails of a pass take 7-14 ms and hold
// the median, the 12 ecount-chain tails take 7-40 ms, and the 2 ecount
// n=64 tails take 240-370 ms. Those are a 43rd of the trials, so the
// 99th percentile falls among them, with about two fifths of them
// beyond it. They run first, beside the short tails.
func setupVerifyTail(e *env) (runner, time.Duration, error) {
	type build struct {
		stack  string
		params registry.Params
		trials int
	}
	builds := []build{
		{"ecount", registry.Params{N: 64, F: 7, C: 8}, 1},
		{"ecount", registry.Params{N: 16, F: 3, C: 8}, 36},
		{"ecount-chain", registry.Params{N: 16, F: 3, C: 8}, 6},
	}
	horizon := uint64(1 << 15)
	if e.short {
		horizon = 1 << 12
		for i := range builds {
			builds[i].trials = 1
		}
	}
	start := time.Now()
	algs := make([]alg.Algorithm, len(builds))
	for i, b := range builds {
		a, err := registry.Build(b.stack, b.params)
		if err != nil {
			return nil, 0, err
		}
		algs[i] = a
	}
	buildTime := time.Since(start)

	s := &simRunner{e: e, cells: map[string]simCell{}}
	advs := []string{"silent", "splitvote"}
	for i, b := range builds {
		a := algs[i]
		bound := a.(alg.Bound).StabilisationBound()
		for _, adv := range advs {
			s.cells[tailName(a, b.stack, adv)] = simCell{
				stack: b.stack, params: b.params, n: a.N(), faults: a.F(),
				adv: adv, bound: bound, horizon: horizon,
			}
		}
	}
	s.campaign = func(p int, oneTrial, noFF bool, memo *harness.TrajectoryMemo) (harness.Campaign, error) {
		seed := passSeed(e.seed, p)
		out := harness.Campaign{Name: "verify-tail", Seed: seed, Workers: e.workers}
		for i, b := range builds {
			a := algs[i]
			memoAlg := fmt.Sprintf("%s/n=%d/f=%d/c=%d", b.stack, a.N(), a.F(), a.C())
			trials := b.trials
			if oneTrial {
				trials = 1
			}
			for _, advName := range advs {
				adv, err := adversary.ByName(advName)
				if err != nil {
					return out, err
				}
				out.Scenarios = append(out.Scenarios, sim.CampaignScenarioFunc(tailName(a, b.stack, advName), trials,
					func(trial int) (sim.Config, error) {
						return sim.Config{
							Alg: a, Faulty: strided(trial, a.N(), a.F()), Adv: adv,
							MaxRounds: horizon, NoFastForward: noFF, Memo: memo, MemoAlg: memoAlg,
						}, nil
					}, &seed))
			}
		}
		return out, nil
	}
	return s, buildTime, s.warmUp()
}

func tailName(a alg.Algorithm, stack, adv string) string {
	return fmt.Sprintf("%s/n=%d/f=%d/c=%d/faults=%d/%s", stack, a.N(), a.F(), a.C(), a.F(), adv)
}
