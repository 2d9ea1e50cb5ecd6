package synchcount_test

import (
	"fmt"
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
