package sim_test

import (
	"fmt"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/registry/registrytest"
	"github.com/synchcount/synchcount/internal/sim"
)

// splitVote is the registry's "splitvote" strategy; the adversary
// package's own tests pin the name.
var splitVote, _ = adversary.ByName("splitvote")

// ffEligibleAdversaries are the built-in strategies the fast-forward
// engine may cycle-detect under (snapshottable, period 1).
var ffEligibleAdversaries = []string{"silent", "mirror", "splitvote", "spread", "flip"}

// runBothPaths executes cfg with fast-forward enabled and disabled on
// both the Run and RunFull paths and requires bit-identical Results.
func runBothPaths(t *testing.T, label string, cfg sim.Config) {
	t.Helper()
	slow := cfg
	slow.NoFastForward = true
	slow.Memo = nil
	for _, full := range []bool{false, true} {
		exec := sim.Run
		mode := "Run"
		if full {
			exec = sim.RunFull
			mode = "RunFull"
		}
		want, err := exec(slow)
		if err != nil {
			t.Fatalf("%s %s: slow path: %v", label, mode, err)
		}
		got, err := exec(cfg)
		if err != nil {
			t.Fatalf("%s %s: fast path: %v", label, mode, err)
		}
		if got != want {
			t.Errorf("%s %s: fast-forward diverged:\n  fast %+v\n  slow %+v", label, mode, got, want)
		}
	}
}

// TestFastForwardMatchesSlowPath is the fast-forward differential
// suite: every registered deterministic algorithm, over its
// conformance cells, under every eligible adversary, across seeds,
// must produce bit-identical Results on Run and RunFull with the
// engine on and off. One ineligible adversary (equivocate) rides
// along to pin the fall-back path, and the slow path itself is held to
// the scalar reference loop by kernel_differential_test.go — together
// the three paths are mutually bit-identical.
func TestFastForwardMatchesSlowPath(t *testing.T) {
	seeds := []int64{3, 44}
	advNames := append(append([]string(nil), ffEligibleAdversaries...), "equivocate")
	for _, name := range registry.Names() {
		cells := registrytest.Cells[name]
		if testing.Short() && len(cells) > 1 {
			cells = cells[:1]
		}
		for _, cell := range cells {
			a, err := registry.Build(name, cell)
			if err != nil {
				t.Fatalf("%s(%v): %v", name, cell, err)
			}
			// Long enough past stabilisation for cycles to confirm and
			// the analytic tail to engage on the small cells; equality
			// must hold round for round regardless.
			maxRounds := cappedHorizon(a, 2048)
			faults := spreadFaults(a.N(), a.F())
			for _, advName := range advNames {
				adv, err := adversary.ByName(advName)
				if err != nil {
					t.Fatal(err)
				}
				if advName != "silent" && len(faults) == 0 {
					continue // fault-free: all adversaries are moot
				}
				for _, seed := range seeds {
					label := fmt.Sprintf("%s/%v/%s/seed=%d", name, cell, advName, seed)
					runBothPaths(t, label, sim.Config{
						Alg:       a,
						Faulty:    faults,
						Adv:       adv,
						Seed:      seed,
						MaxRounds: maxRounds,
					})
				}
			}
		}
	}
}

// TestFastForwardLongHorizon pins the headline regime — long-horizon
// RunFull verification tails where the analytic conclusion skips the
// bulk of the rounds — bit-identical on a cell whose cycle (λ = 360)
// is tiny against the horizon.
func TestFastForwardLongHorizon(t *testing.T) {
	a, err := ecount.New(16, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, advName := range []string{"silent", "splitvote"} {
		adv, err := adversary.ByName(advName)
		if err != nil {
			t.Fatal(err)
		}
		runBothPaths(t, "ecount-n16/"+advName, sim.Config{
			Alg:       a,
			Faulty:    spreadFaults(16, 3),
			Adv:       adv,
			Seed:      5,
			MaxRounds: 1 << 15,
		})
	}
}

// TestFastForwardExhaustiveSmallN runs every initial configuration of
// a small algorithm — the full state space, not a sample — under every
// eligible adversary, requiring the fast path to match the slow path
// and the scalar reference exactly. With 3^4 = 81 configurations per
// adversary this is the exhaustive half of the cycle-verification
// property test.
func TestFastForwardExhaustiveSmallN(t *testing.T) {
	a, err := counter.NewMaxStep(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	space := a.StateSpace()
	n := a.N()
	total := uint64(1)
	for i := 0; i < n; i++ {
		total *= space
	}
	for _, advName := range ffEligibleAdversaries {
		adv, err := adversary.ByName(advName)
		if err != nil {
			t.Fatal(err)
		}
		// One faulty node: the algorithm has resilience 0, so this is
		// an overload run — fast-forward eligibility does not depend
		// on the fault budget and the Byzantine messages stress the
		// cycle structure.
		for _, faulty := range [][]int{nil, {1}} {
			for code := uint64(0); code < total; code++ {
				init := make([]alg.State, n)
				c := code
				for i := range init {
					init[i] = c % space
					c /= space
				}
				label := fmt.Sprintf("maxstep/%s/faulty=%v/init=%v", advName, faulty, init)
				cfg := sim.Config{
					Alg:       a,
					Faulty:    faulty,
					Adv:       adv,
					Seed:      1,
					Init:      init,
					MaxRounds: 256,
				}
				runBothPaths(t, label, cfg)
				slow := cfg
				slow.NoFastForward = true
				slow.StopEarly = true
				want, err := sim.RunReference(slow)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("%s: fast path diverged from scalar reference:\n  fast %+v\n  ref  %+v", label, got, want)
				}
			}
		}
	}
}

// TestFastForwardDegenerateHash installs pathological configuration
// hashes — constant, then single-bit — so that every round collides
// with the checkpoint. Correctness must rest entirely on the full
// configuration verification: results stay bit-identical and runs
// terminate. (The memo indexes configurations under alg.HashConfig,
// so its lookups miss under these hashes and every trial publishes
// the cycle it detects.)
func TestFastForwardDegenerateHash(t *testing.T) {
	hashes := map[string]func([]sim.State) uint64{
		"constant": func([]sim.State) uint64 { return 0 },
		"one-bit":  func(ws []sim.State) uint64 { return alg.HashConfig(ws) & 1 },
	}
	a, err := ecount.New(10, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for hname, h := range hashes {
		restore := sim.SetConfigHashForTest(h)
		memo := harness.NewTrajectoryMemo(0)
		for _, advName := range ffEligibleAdversaries {
			adv, err := adversary.ByName(advName)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				runBothPaths(t, fmt.Sprintf("hash=%s/%s/seed=%d", hname, advName, seed), sim.Config{
					Alg:       a,
					Faulty:    []int{3},
					Adv:       adv,
					Seed:      seed,
					MaxRounds: 4096,
					Memo:      memo,
					MemoAlg:   "ecount/n=10/f=1/c=10",
				})
			}
		}
		restore()
	}
}

// TestFastForwardMemoSharing checks the cross-trial memo: trials with
// merging trajectories must produce exactly the memo-less results
// while actually hitting the cache, and a capacity-1 memo must stay
// within its bound under rejected inserts.
func TestFastForwardMemoSharing(t *testing.T) {
	a, err := ecount.New(16, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	faults := spreadFaults(16, 3)
	memo := harness.NewTrajectoryMemo(0)
	base := sim.Config{
		Alg:       a,
		Faulty:    faults,
		Adv:       splitVote,
		MaxRounds: 1 << 14,
		Memo:      memo,
		MemoAlg:   "ecount/n=16/f=3/c=8",
	}
	for seed := int64(1); seed <= 6; seed++ {
		cfg := base
		cfg.Seed = seed
		runBothPaths(t, fmt.Sprintf("memo/seed=%d", seed), cfg)
	}
	if memo.Len() == 0 {
		t.Fatal("no cycles were published to the memo")
	}
	hits, _, _ := memo.Stats()
	if hits == 0 {
		t.Error("trials with merging trajectories never hit the memo")
	}

	tiny := harness.NewTrajectoryMemo(1)
	cfg := base
	cfg.Memo = tiny
	cfg.Seed = 1
	runBothPaths(t, "memo/capacity=1", cfg)
	if tiny.Len() > 1 {
		t.Fatalf("memo exceeded its bound: %d > 1", tiny.Len())
	}
}

// TestFastForwardEligibility pins the gate: exactly the advertised
// configurations may enter the engine.
func TestFastForwardEligibility(t *testing.T) {
	det, err := ecount.New(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := counter.NewRandomizedAgree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := adversary.NewGreedy(det, adversary.Silent{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	random, err := adversary.ByName("random")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label string
		cfg   sim.Config
		want  bool
	}{
		{"deterministic+silent", sim.Config{Alg: det, Adv: adversary.Silent{}}, true},
		{"deterministic+splitvote", sim.Config{Alg: det, Adv: splitVote}, true},
		{"deterministic+random", sim.Config{Alg: det, Adv: random}, false},
		{"deterministic+equivocate", sim.Config{Alg: det, Adv: adversary.Equivocate{}}, false},
		{"default adversary (equivocate)", sim.Config{Alg: det}, false},
		{"deterministic+greedy", sim.Config{Alg: det, Adv: greedy}, false},
		{"randomised+silent", sim.Config{Alg: rnd, Adv: adversary.Silent{}}, false},
		{"observer attached", sim.Config{Alg: det, Adv: adversary.Silent{}, OnRound: func(uint64, []alg.State, []int) {}}, false},
		{"explicitly disabled", sim.Config{Alg: det, Adv: adversary.Silent{}, NoFastForward: true}, false},
	}
	for _, tc := range cases {
		period, ok := sim.FastForwardEligible(tc.cfg)
		if ok != tc.want {
			t.Errorf("%s: eligible = %v, want %v", tc.label, ok, tc.want)
		}
		if ok && period != 1 {
			t.Errorf("%s: period = %d, want 1", tc.label, period)
		}
	}
}
