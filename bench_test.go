// Benchmark harness regenerating every table and figure of the paper
// (see DESIGN.md §4 for the experiment index):
//
//	BenchmarkSection1_*  — the worked execution of Section 1 (E1)
//	BenchmarkTable1_*    — the algorithm landscape of Table 1 (E2)
//	BenchmarkFigure1_*   — leader-window alignment, Figure 1 (E3)
//	BenchmarkFigure2_*   — the recursive 36-node stack, Figure 2 (E4)
//	BenchmarkTheorem1_*  — bound-tightness ablations (E5)
//	BenchmarkScaling_*   — Theorem 2/3 scaling series (E6)
//	BenchmarkPulling_*   — Section 5 message complexity (E7, E8)
//
// Custom metrics: "rounds" is the measured stabilisation time,
// "bound_rounds" the Theorem 1 analytical bound, "state_bits" the exact
// space complexity, "pulls/round" the pulling-model per-node message
// complexity, and "violations" the post-stabilisation failure count.
package synchcount_test

import (
	"context"
	"fmt"
	"testing"

	"github.com/synchcount/synchcount"
)

// simOnce runs one simulation per iteration and reports the mean
// stabilisation time as the "rounds" metric, plus any static metrics
// supplied by the caller (reported after the loop: the testing harness
// clears metrics recorded before the final run).
func simOnce(b *testing.B, cfg synchcount.SimConfig, extra map[string]float64) {
	b.Helper()
	var total uint64
	var runs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		res, err := synchcount.Simulate(c)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Stabilised {
			b.Fatalf("iteration %d did not stabilise within %d rounds", i, c.MaxRounds)
		}
		total += res.StabilisationTime
		runs++
	}
	b.ReportMetric(float64(total)/float64(runs), "rounds")
	for unit, v := range extra {
		b.ReportMetric(v, unit)
	}
}

// --- E1: the Section 1 worked example -------------------------------

func BenchmarkSection1_Example_N4F1C3(b *testing.B) {
	cnt, err := synchcount.OptimalResilience(1, 3)
	if err != nil {
		b.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	simOnce(b, synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{2},
		Adv:       synchcount.MustAdversary("equivocate"),
		Seed:      7,
		MaxRounds: bound + 256,
		Window:    64,
	}, map[string]float64{
		"bound_rounds": float64(bound),
		"state_bits":   float64(synchcount.StateBits(cnt)),
	})
}

// --- E2: Table 1 rows ------------------------------------------------

func BenchmarkTable1_Randomized67_N4F1(b *testing.B) {
	alg, err := synchcount.RandomizedAgree(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	simOnce(b, synchcount.SimConfig{
		Alg:       alg,
		Faulty:    []int{1},
		Adv:       synchcount.MustAdversary("splitvote"),
		Seed:      11,
		MaxRounds: 1 << 22,
	}, map[string]float64{"state_bits": float64(synchcount.StateBits(alg))})
}

func BenchmarkTable1_Randomized67_N7F2(b *testing.B) {
	alg, err := synchcount.RandomizedAgree(7, 2)
	if err != nil {
		b.Fatal(err)
	}
	simOnce(b, synchcount.SimConfig{
		Alg:       alg,
		Faulty:    []int{1, 4},
		Adv:       synchcount.MustAdversary("splitvote"),
		Seed:      1,
		MaxRounds: 1 << 22,
	}, map[string]float64{"state_bits": float64(synchcount.StateBits(alg))})
}

func BenchmarkTable1_RandomizedBiased5_N7F2(b *testing.B) {
	alg, err := synchcount.RandomizedBiased(7, 2)
	if err != nil {
		b.Fatal(err)
	}
	simOnce(b, synchcount.SimConfig{
		Alg:       alg,
		Faulty:    []int{1, 4},
		Adv:       synchcount.MustAdversary("splitvote"),
		Seed:      1,
		MaxRounds: 1 << 22,
	}, map[string]float64{"state_bits": float64(synchcount.StateBits(alg))})
}

func BenchmarkTable1_Corollary1_N4F1(b *testing.B) {
	cnt, err := synchcount.OptimalResilience(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	init, err := cnt.WorstInit()
	if err != nil {
		b.Fatal(err)
	}
	simOnce(b, synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{0},
		Adv:       synchcount.Saboteur(cnt),
		Init:      init,
		Seed:      2,
		MaxRounds: bound + 512,
		Window:    128,
	}, map[string]float64{
		"bound_rounds": float64(bound),
		"state_bits":   float64(synchcount.StateBits(cnt)),
	})
}

func BenchmarkTable1_ThisWork_N12F3(b *testing.B) {
	plan := synchcount.Plan{Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}}, C: 2}
	cnt, _, stats, err := synchcount.FromPlan(plan)
	if err != nil {
		b.Fatal(err)
	}
	init, err := cnt.WorstInit()
	if err != nil {
		b.Fatal(err)
	}
	simOnce(b, synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{0, 1, 2}, // break leader-candidate block 0 of the top level
		Adv:       synchcount.Saboteur(cnt),
		Init:      init,
		Seed:      2,
		MaxRounds: stats.TimeBound + 1024,
		Window:    128,
	}, map[string]float64{
		"bound_rounds": float64(stats.TimeBound),
		"state_bits":   float64(stats.StateBits),
	})
}

func BenchmarkTable1_ThisWork_N36F7(b *testing.B) {
	cnt, err := synchcount.Figure2(2)
	if err != nil {
		b.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	init, err := cnt.WorstInit()
	if err != nil {
		b.Fatal(err)
	}
	simOnce(b, synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{4, 5, 6, 7, 13, 22, 31},
		Adv:       synchcount.Saboteur(cnt),
		Init:      init,
		Seed:      2,
		MaxRounds: bound + 1024,
		Window:    128,
	}, map[string]float64{
		"bound_rounds": float64(bound),
		"state_bits":   float64(synchcount.StateBits(cnt)),
	})
}

// --- E3: Figure 1 ----------------------------------------------------

// BenchmarkFigure1_LeaderWindows measures the Lemma 2 mechanism: the
// fraction of rounds in which all blocks of a k=5 (2m=6) construction
// point at a common leader, from an adversarially staggered start.
func BenchmarkFigure1_LeaderWindows(b *testing.B) {
	base, err := synchcount.TrivialCounter(9 * 7776)
	if err != nil {
		b.Fatal(err)
	}
	cnt, err := synchcount.Boost(base, synchcount.BoostParams{K: 5, F: 1, C: 6})
	if err != nil {
		b.Fatal(err)
	}
	init, err := cnt.WorstInit()
	if err != nil {
		b.Fatal(err)
	}
	const horizon = 4000
	var common, windows float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commonRounds := 0
		inWindow := false
		windowCount := 0
		_, err := synchcount.SimulateFull(synchcount.SimConfig{
			Alg:       cnt,
			Init:      init,
			Seed:      1,
			MaxRounds: horizon,
			OnRound: func(_ uint64, states []synchcount.State, _ []int) {
				_, _, first := cnt.Leader(0, states[0])
				same := true
				for u := 1; u < cnt.N(); u++ {
					if _, _, p := cnt.Leader(u, states[u]); p != first {
						same = false
						break
					}
				}
				if same {
					commonRounds++
					if !inWindow {
						windowCount++
					}
				}
				inWindow = same
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		common = float64(commonRounds) / horizon
		windows = float64(windowCount)
	}
	b.ReportMetric(common, "common_leader_fraction")
	b.ReportMetric(windows, "alignment_windows")
	if common == 0 {
		b.Fatal("no common-leader windows observed — Lemma 2 mechanism broken")
	}
}

// --- E4: Figure 2 ----------------------------------------------------

func BenchmarkFigure2_Recursive36(b *testing.B) {
	cnt, err := synchcount.Figure2(10)
	if err != nil {
		b.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	init, err := cnt.WorstInit()
	if err != nil {
		b.Fatal(err)
	}
	simOnce(b, synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{4, 5, 6, 7, 13, 22, 31},
		Adv:       synchcount.Saboteur(cnt),
		Init:      init,
		Seed:      1,
		MaxRounds: bound + 1024,
		Window:    128,
	}, map[string]float64{
		"bound_rounds": float64(bound),
		"state_bits":   float64(synchcount.StateBits(cnt)),
	})
}

// --- E5: Theorem 1 bound-tightness ablations -------------------------

// BenchmarkTheorem1_BlockCount measures how the worst-observed
// stabilisation time scales with the number of blocks k: the Theorem 1
// overhead is 3(F+2)(2m)^k, and the honest-block alignment term that a
// swing-block attack exercises is Θ(τ(2m)^{k-1}).
func BenchmarkTheorem1_BlockCount(b *testing.B) {
	for _, k := range []int{4, 5, 6} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			m := (k + 1) / 2
			overhead := uint64(9)
			for i := 0; i < k; i++ {
				overhead *= uint64(2 * m)
			}
			base, err := synchcount.TrivialCounter(int(overhead))
			if err != nil {
				b.Fatal(err)
			}
			cnt, err := synchcount.Boost(base, synchcount.BoostParams{K: k, F: 1, C: 8})
			if err != nil {
				b.Fatal(err)
			}
			init, err := cnt.WorstInit()
			if err != nil {
				b.Fatal(err)
			}
			bound, _ := synchcount.StabilisationBound(cnt)
			simOnce(b, synchcount.SimConfig{
				Alg:       cnt,
				Faulty:    []int{0},
				Adv:       synchcount.Saboteur(cnt),
				Init:      init,
				Seed:      2,
				MaxRounds: bound + 1024,
				Window:    128,
			}, map[string]float64{"bound_rounds": float64(bound)})
		})
	}
}

// BenchmarkTheorem1_Adversaries compares attack strategies on the same
// construction: generic attacks stabilise almost immediately; only the
// construction-aware attack exercises the alignment term.
func BenchmarkTheorem1_Adversaries(b *testing.B) {
	cnt, err := synchcount.OptimalResilience(1, 960)
	if err != nil {
		b.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	init, err := cnt.WorstInit()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range append(synchcount.Adversaries(), "saboteur") {
		name := name
		b.Run(name, func(b *testing.B) {
			var adv synchcount.Adversary
			if name == "saboteur" {
				adv = synchcount.Saboteur(cnt)
			} else {
				adv = synchcount.MustAdversary(name)
			}
			simOnce(b, synchcount.SimConfig{
				Alg:       cnt,
				Faulty:    []int{0},
				Adv:       adv,
				Init:      init,
				Seed:      3,
				MaxRounds: bound + 512,
				Window:    128,
			}, map[string]float64{"bound_rounds": float64(bound)})
		})
	}
}

// BenchmarkTheorem1_CounterSize verifies that the output modulus C only
// affects state size (S(B) = S(A) + ceil(log(C+1)) + 1), not
// stabilisation time.
func BenchmarkTheorem1_CounterSize(b *testing.B) {
	for _, c := range []int{2, 60, 960} {
		c := c
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			cnt, err := synchcount.OptimalResilience(1, c)
			if err != nil {
				b.Fatal(err)
			}
			bound, _ := synchcount.StabilisationBound(cnt)
			init, err := cnt.WorstInit()
			if err != nil {
				b.Fatal(err)
			}
			simOnce(b, synchcount.SimConfig{
				Alg:       cnt,
				Faulty:    []int{0},
				Adv:       synchcount.Saboteur(cnt),
				Init:      init,
				Seed:      4,
				MaxRounds: bound + 512,
				Window:    64,
			}, map[string]float64{"state_bits": float64(synchcount.StateBits(cnt))})
		})
	}
}

// --- E6: scaling series ----------------------------------------------

// BenchmarkScaling_FixedK reports the predicted resilience, time and
// space of the Theorem 2 construction across recursion depths: the
// bound/F ratio flattens (T = O(f)) while bits grow ~log² f.
func BenchmarkScaling_FixedK(b *testing.B) {
	for depth := 1; depth <= 6; depth++ {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var st synchcount.PlanStats
			for i := 0; i < b.N; i++ {
				p, err := synchcount.PlanFixedK(4, depth, 2)
				if err != nil {
					b.Fatal(err)
				}
				st, err = synchcount.PredictPlan(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.N), "N")
			b.ReportMetric(float64(st.F), "F")
			b.ReportMetric(float64(st.TimeBound), "bound_rounds")
			b.ReportMetric(float64(st.TimeBound)/float64(st.F), "bound_per_f")
			b.ReportMetric(float64(st.StateBits), "state_bits")
		})
	}
}

// BenchmarkScaling_VaryingK reports the Theorem 3 schedule for one
// phase — the largest instance representable in 64 bits (two phases
// already exceed 2^63 nodes, which PlanVaryingK reports as an error;
// the paper's regime is asymptotic by design).
func BenchmarkScaling_VaryingK(b *testing.B) {
	b.Run("P=1", func(b *testing.B) {
		var st synchcount.PlanStats
		for i := 0; i < b.N; i++ {
			p, err := synchcount.PlanVaryingK(1, 2)
			if err != nil {
				b.Fatal(err)
			}
			st, err = synchcount.PredictPlan(p)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(st.N), "N")
		b.ReportMetric(float64(st.F), "F")
		b.ReportMetric(float64(st.StateBits), "state_bits")
	})
	b.Run("P=2_envelope", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := synchcount.PlanVaryingK(2, 2); err == nil {
				b.Fatal("P=2 should exceed the 64-bit envelope")
			}
		}
	})
}

// --- E7/E8: pulling model --------------------------------------------

func pullOnce(b *testing.B, alg synchcount.PullAlgorithm, horizon uint64) {
	b.Helper()
	var pulls, violations float64
	stabilised := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := synchcount.SimulatePullFull(synchcount.PullConfig{
			Alg:       alg,
			Faulty:    []int{4, 10},
			Adv:       synchcount.MustAdversary("equivocate"),
			Seed:      21 + int64(i),
			MaxRounds: horizon,
			Window:    96,
		})
		if err != nil {
			b.Fatal(err)
		}
		pulls = float64(res.MaxPulls)
		violations += float64(res.Violations)
		if res.Stabilised {
			stabilised++
		}
	}
	b.ReportMetric(pulls, "pulls/round")
	b.ReportMetric(violations/float64(b.N), "violations")
	b.ReportMetric(float64(stabilised)/float64(b.N), "stabilised_frac")
}

func pullStack(b *testing.B) (*synchcount.Counter, uint64) {
	b.Helper()
	plan := synchcount.Plan{Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}}, C: 8}
	cnt, _, stats, err := synchcount.FromPlan(plan)
	if err != nil {
		b.Fatal(err)
	}
	return cnt, stats.TimeBound + 1500
}

func BenchmarkPulling_BroadcastReference(b *testing.B) {
	cnt, horizon := pullStack(b)
	pullOnce(b, synchcount.PullBroadcast(cnt), horizon)
}

func BenchmarkPulling_Sampled(b *testing.B) {
	cnt, horizon := pullStack(b)
	for _, m := range []int{12, 24, 48} {
		m := m
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			s, err := synchcount.Sampled(cnt, m, false, 1)
			if err != nil {
				b.Fatal(err)
			}
			pullOnce(b, s, horizon)
		})
	}
}

func BenchmarkPulling_PseudoRandom(b *testing.B) {
	cnt, horizon := pullStack(b)
	s, err := synchcount.Sampled(cnt, 24, true, 99)
	if err != nil {
		b.Fatal(err)
	}
	pullOnce(b, s, horizon)
}

// --- campaign harness throughput ---------------------------------------

// harnessCampaign builds a fixed-size campaign of equal-cost
// deterministic trials: the A(12,3) stack under the saboteur from the
// worst-case initial configuration, run for a fixed horizon so every
// trial performs identical work. Used to measure the parallel engine's
// throughput against the sequential baseline.
func harnessCampaign(b *testing.B, workers int) synchcount.Campaign {
	b.Helper()
	plan := synchcount.Plan{Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}}, C: 8}
	cnt, _, _, err := synchcount.FromPlan(plan)
	if err != nil {
		b.Fatal(err)
	}
	init, err := cnt.WorstInit()
	if err != nil {
		b.Fatal(err)
	}
	cfg := synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{0, 1, 2},
		Adv:       synchcount.Saboteur(cnt),
		Init:      init,
		Seed:      2,
		MaxRounds: 1500,
		Window:    128,
		StopEarly: false, // fixed horizon: every trial costs the same
	}
	return synchcount.Campaign{
		Name:    "bench",
		Seed:    2,
		Workers: workers,
		Scenarios: []synchcount.Scenario{
			synchcount.SimScenario("A(12,3)-saboteur", cfg, 8),
		},
	}
}

func runHarnessBench(b *testing.B, workers int) {
	b.Helper()
	campaign := harnessCampaign(b, workers)
	var trials int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		st := res.Scenarios[0].Stats
		if st.Stabilised != st.Trials {
			b.Fatalf("only %d/%d trials stabilised", st.Stabilised, st.Trials)
		}
		trials = st.Trials
	}
	b.ReportMetric(float64(trials), "trials/op")
}

// BenchmarkHarness_Sequential is the single-worker baseline: the
// campaign engine degenerates to the historical sequential trial loop.
func BenchmarkHarness_Sequential(b *testing.B) { runHarnessBench(b, 1) }

// BenchmarkHarness_Parallel runs the identical campaign over a
// GOMAXPROCS-sized worker pool. Results are byte-identical to the
// sequential run; on a 4-core runner throughput is expected to be >= 2x
// the sequential baseline (ns/op correspondingly lower).
func BenchmarkHarness_Parallel(b *testing.B) { runHarnessBench(b, 0) }

// --- engineering microbenchmarks ---------------------------------------

// BenchmarkStep measures the per-node per-round transition cost of the
// deterministic constructions — the quantity a circuit implementation
// would care about.
func BenchmarkStep(b *testing.B) {
	builds := []struct {
		name  string
		build func() (*synchcount.Counter, error)
	}{
		{"A(4,1)", func() (*synchcount.Counter, error) { return synchcount.OptimalResilience(1, 8) }},
		{"A(12,3)", func() (*synchcount.Counter, error) {
			cnt, _, _, err := synchcount.FromPlan(synchcount.Plan{
				Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}}, C: 8,
			})
			return cnt, err
		}},
		{"A(36,7)", func() (*synchcount.Counter, error) { return synchcount.Figure2(8) }},
	}
	for _, tc := range builds {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cnt, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			init, err := cnt.WorstInit()
			if err != nil {
				b.Fatal(err)
			}
			recv := make([]synchcount.State, cnt.N())
			copy(recv, init)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recv[0] = cnt.Step(i%cnt.N(), recv, nil)
			}
		})
	}
}

// BenchmarkVerify measures exhaustive model checking throughput.
func BenchmarkVerify(b *testing.B) {
	m, err := synchcount.FaultFreeCounter(4, 6)
	if err != nil {
		b.Fatal(err)
	}
	var configs float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := synchcount.Verify(m, synchcount.VerifyOptions{})
		if err != nil || !res.OK {
			b.Fatalf("verify: %v ok=%v", err, res.OK)
		}
		configs = float64(res.ConfigsExplored)
	}
	b.ReportMetric(configs, "configs")
}

// BenchmarkSynthesis measures the exhaustive search rate used by E10.
func BenchmarkSynthesis(b *testing.B) {
	var found float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := synchcount.Synthesise(4, 1, synchcount.SynthOptions{})
		if err != nil {
			b.Fatal(err)
		}
		found = float64(len(res))
	}
	b.ReportMetric(found, "solutions")
}
