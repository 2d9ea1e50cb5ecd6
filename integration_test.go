package synchcount_test

import (
	"fmt"
	"math/bits"
	"testing"

	"github.com/synchcount/synchcount"
)

// TestMatrix_EveryCounterEveryAdversary is the cross-cutting integration
// test: every deterministic construction in the library must stabilise
// within its Theorem 1 bound against every adversary in the suite —
// including the construction-aware saboteur and the greedy lookahead
// attacker — from both random and adversarially crafted initial
// configurations.
func TestMatrix_EveryCounterEveryAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	counters := []struct {
		name   string
		build  func() (*synchcount.Counter, error)
		faults []int
	}{
		{
			name:   "A(4,1)",
			build:  func() (*synchcount.Counter, error) { return synchcount.OptimalResilience(1, 8) },
			faults: []int{0},
		},
		{
			name: "A(12,3)",
			build: func() (*synchcount.Counter, error) {
				cnt, _, _, err := synchcount.FromPlan(synchcount.Plan{
					Levels: []synchcount.PlanLevel{{K: 4, F: 1}, {K: 3, F: 3}},
					C:      8,
				})
				return cnt, err
			},
			faults: []int{0, 5, 9},
		},
		{
			name:   "A(16,3)k4",
			build:  func() (*synchcount.Counter, error) { return synchcount.Scalable(4, 2, 8) },
			faults: []int{1, 6, 12},
		},
	}

	for _, tc := range counters {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cnt, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			bound, err := synchcount.StabilisationBound(cnt)
			if err != nil {
				t.Fatal(err)
			}
			worst, err := cnt.WorstInit()
			if err != nil {
				t.Fatal(err)
			}

			advs := make(map[string]synchcount.Adversary)
			for _, name := range synchcount.Adversaries() {
				advs[name] = synchcount.MustAdversary(name)
			}
			advs["saboteur"] = synchcount.Saboteur(cnt)
			greedy, err := synchcount.Greedy(cnt, synchcount.Saboteur(cnt), 4)
			if err != nil {
				t.Fatal(err)
			}
			advs["greedy"] = greedy

			for name, adv := range advs {
				for _, initName := range []string{"random", "worst"} {
					var init []synchcount.State
					if initName == "worst" {
						init = worst
					}
					res, err := synchcount.Simulate(synchcount.SimConfig{
						Alg:       cnt,
						Faulty:    tc.faults,
						Adv:       adv,
						Init:      init,
						Seed:      42,
						MaxRounds: bound + 1024,
						Window:    128,
					})
					if err != nil {
						t.Fatalf("%s/%s: %v", name, initName, err)
					}
					if !res.Stabilised {
						t.Errorf("%s/%s: did not stabilise within %d rounds", name, initName, bound+1024)
						continue
					}
					if res.StabilisationTime > bound {
						t.Errorf("%s/%s: T = %d exceeds bound %d", name, initName, res.StabilisationTime, bound)
					}
					if res.Violations != 0 {
						t.Errorf("%s/%s: %d post-stabilisation violations", name, initName, res.Violations)
					}
				}
			}
		})
	}
}

// TestMatrix_FaultPlacement sweeps every single-fault position of the
// A(4,1) counter under the saboteur: the construction must be position
// independent.
func TestMatrix_FaultPlacement(t *testing.T) {
	cnt, err := synchcount.OptimalResilience(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	bound, _ := synchcount.StabilisationBound(cnt)
	for pos := 0; pos < 4; pos++ {
		pos := pos
		t.Run(fmt.Sprintf("fault=%d", pos), func(t *testing.T) {
			res, err := synchcount.Simulate(synchcount.SimConfig{
				Alg:       cnt,
				Faulty:    []int{pos},
				Adv:       synchcount.Saboteur(cnt),
				Seed:      7,
				MaxRounds: bound + 512,
				Window:    128,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Stabilised || res.StabilisationTime > bound {
				t.Fatalf("fault at %d: stabilised=%v T=%d (bound %d)",
					pos, res.Stabilised, res.StabilisationTime, bound)
			}
		})
	}
}

// TestOverloadBeyondResilience documents behaviour outside the contract:
// with F+1 faults the counter may or may not stabilise — the simulator
// must flag the overload and never crash.
func TestOverloadBeyondResilience(t *testing.T) {
	cnt, err := synchcount.OptimalResilience(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synchcount.Simulate(synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{0, 1}, // two faults against f = 1
		Adv:       synchcount.Saboteur(cnt),
		Seed:      1,
		MaxRounds: 4000,
		Window:    64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overloaded {
		t.Fatal("overload not flagged")
	}
	t.Logf("overloaded run: stabilised=%v (no guarantee either way)", res.Stabilised)
}

// TestTheorem1_StateSpacePerLevel checks Theorem 1's space bound on the
// stacks FromPlan builds: every level's state space is the level
// below's times (C+1)·2, its counter and flag fields, so its state bits
// are S(B) = S(A) + ⌈log(C+1)⌉ + 1 rounded up field by field. That sum
// is what PredictPlan reports (and table1's scaling section prints); the
// built counter packs its fields into the possibly smaller
// ⌈log₂|X|⌉ that StateBits reports.
func TestTheorem1_StateSpacePerLevel(t *testing.T) {
	ceilLog2 := func(x uint64) int { return bits.Len64(x - 1) }
	for depth := 1; depth <= 3; depth++ {
		t.Run(fmt.Sprintf("k=4/depth=%d", depth), func(t *testing.T) {
			p, err := synchcount.PlanFixedK(4, depth, 2)
			if err != nil {
				t.Fatal(err)
			}
			top, levels, built, err := synchcount.FromPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			sum := ceilLog2(levels[0].Base().StateSpace())
			for i, lv := range levels {
				below := lv.Base().StateSpace()
				if want := below * uint64(lv.C()+1) * 2; lv.StateSpace() != want {
					t.Errorf("level %d: |X| = %d, want %d·(%d+1)·2 = %d", i, lv.StateSpace(), below, lv.C(), want)
				}
				sum += ceilLog2(uint64(lv.C()+1)) + 1
			}
			pred, err := synchcount.PredictPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			if pred.StateBits != sum || pred.StateSpace != top.StateSpace() {
				t.Errorf("PredictPlan bits %d, |X| %d; built stack sums %d bits, |X| %d",
					pred.StateBits, pred.StateSpace, sum, top.StateSpace())
			}
			if built.StateBits != synchcount.StateBits(top) || built.StateBits > sum {
				t.Errorf("FromPlan reports %d bits; packed %d, Theorem 1 sum %d",
					built.StateBits, synchcount.StateBits(top), sum)
			}
		})
	}
}

// theorem1Run runs cnt under the saboteur with node 0 faulty from the
// worst-case initial configuration, and fails unless it stabilises
// within the Theorem 1 bound. It returns the stabilisation time.
func theorem1Run(t *testing.T, cnt *synchcount.Counter, seed int64, window uint64) uint64 {
	t.Helper()
	bound, err := synchcount.StabilisationBound(cnt)
	if err != nil {
		t.Fatal(err)
	}
	init, err := cnt.WorstInit()
	if err != nil {
		t.Fatal(err)
	}
	res, err := synchcount.Simulate(synchcount.SimConfig{
		Alg:       cnt,
		Faulty:    []int{0},
		Adv:       synchcount.Saboteur(cnt),
		Init:      init,
		Seed:      seed,
		MaxRounds: bound + 1024,
		Window:    window,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised || res.StabilisationTime > bound {
		t.Fatalf("stabilised=%v T=%d, bound %d", res.Stabilised, res.StabilisationTime, bound)
	}
	return res.StabilisationTime
}

// TestTheorem1_BlockCount boosts the trivial counter with k = 4, 5, 6
// blocks: the Theorem 1 overhead 3(F+2)(2m)^k grows with k, and the
// saboteur's swing-block attack must still stabilise within it.
func TestTheorem1_BlockCount(t *testing.T) {
	for _, k := range []int{4, 5, 6} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			m := (k + 1) / 2
			overhead := 9 // 3(F+2) with F = 1
			for i := 0; i < k; i++ {
				overhead *= 2 * m
			}
			base, err := synchcount.TrivialCounter(overhead)
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := synchcount.Boost(base, synchcount.BoostParams{K: k, F: 1, C: 8})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("T = %d", theorem1Run(t, cnt, 2, 128))
		})
	}
}

// TestTheorem1_CounterSizeInvariance: the output modulus C adds state
// bits but no stabilisation time, so A(4,1) under the same attack
// stabilises at the same round for every C.
func TestTheorem1_CounterSizeInvariance(t *testing.T) {
	times := map[int]uint64{}
	for _, c := range []int{2, 60, 960} {
		cnt, err := synchcount.OptimalResilience(1, c)
		if err != nil {
			t.Fatal(err)
		}
		times[c] = theorem1Run(t, cnt, 4, 64)
	}
	if times[60] != times[2] || times[960] != times[2] {
		t.Fatalf("stabilisation time depends on C: %v", times)
	}
}
