package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
)

// splitVote is the registry's "splitvote" strategy; the adversary
// package's own tests pin the name.
var splitVote, _ = adversary.ByName("splitvote")

func TestRunValidation(t *testing.T) {
	triv, _ := counter.NewTrivial(4)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil alg", Config{MaxRounds: 10}},
		{"zero rounds", Config{Alg: triv}},
		{"faulty out of range", Config{Alg: triv, MaxRounds: 10, Faulty: []int{5}}},
		{"faulty duplicated", Config{Alg: triv, MaxRounds: 10, Faulty: []int{0, 0}}},
		{"bad init length", Config{Alg: triv, MaxRounds: 10, Init: []alg.State{1, 2}}},
		{"init out of space", Config{Alg: triv, MaxRounds: 10, Init: []alg.State{9}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestTrivialStabilisesImmediately(t *testing.T) {
	triv, _ := counter.NewTrivial(6)
	res, err := Run(Config{Alg: triv, Seed: 1, MaxRounds: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised || res.StabilisationTime != 0 {
		t.Fatalf("trivial counter: stabilised=%v t=%d, want true/0", res.Stabilised, res.StabilisationTime)
	}
}

func TestMaxStepStabilisesWithinOneRound(t *testing.T) {
	m, _ := counter.NewMaxStep(5, 8)
	for seed := int64(0); seed < 20; seed++ {
		res, err := Run(Config{Alg: m, Seed: seed, MaxRounds: 300})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stabilised {
			t.Fatalf("seed %d: did not stabilise", seed)
		}
		if res.StabilisationTime > 1 {
			t.Fatalf("seed %d: stabilisation time %d, want <= 1", seed, res.StabilisationTime)
		}
	}
}

func TestRandomizedAgreeStabilisesUnderEveryAdversary(t *testing.T) {
	// n=4, f=1: expected stabilisation ~2^(n-f); generous round budget.
	r, err := counter.NewRandomizedAgree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range adversary.Names() {
		adv, err := adversary.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			stabilised := 0
			for seed := int64(0); seed < 10; seed++ {
				res, err := Run(Config{
					Alg:       r,
					Faulty:    []int{2},
					Adv:       adv,
					Seed:      seed,
					MaxRounds: 20000,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stabilised {
					stabilised++
				}
			}
			if stabilised < 9 {
				t.Errorf("only %d/10 runs stabilised under %s", stabilised, name)
			}
		})
	}
}

func TestRandomizedBiasedStabilises(t *testing.T) {
	r, err := counter.NewRandomizedBiased(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMany(Config{
		Alg:       r,
		Faulty:    []int{1, 5},
		Adv:       splitVote,
		Seed:      99,
		MaxRounds: 50000,
	}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stabilised < 9 {
		t.Errorf("only %d/10 trials stabilised", res.Stabilised)
	}
}

// stuckAlg agrees instantly but never increments: stabilisation detection
// must reject it.
type stuckAlg struct{}

func (stuckAlg) N() int                                      { return 3 }
func (stuckAlg) F() int                                      { return 0 }
func (stuckAlg) C() int                                      { return 4 }
func (stuckAlg) StateSpace() uint64                          { return 4 }
func (stuckAlg) Step(int, []alg.State, *rand.Rand) alg.State { return 2 }
func (stuckAlg) Output(_ int, s alg.State) int               { return int(s % 4) }

func TestStuckCounterIsNotStabilised(t *testing.T) {
	res, err := Run(Config{Alg: stuckAlg{}, Seed: 3, MaxRounds: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stabilised {
		t.Fatal("a non-incrementing algorithm must not count as stabilised")
	}
}

// skipAlg counts by two: agreement holds but the increment check must
// reject it.
type skipAlg struct{}

func (skipAlg) N() int             { return 3 }
func (skipAlg) F() int             { return 0 }
func (skipAlg) C() int             { return 4 }
func (skipAlg) StateSpace() uint64 { return 4 }
func (skipAlg) Step(_ int, recv []alg.State, _ *rand.Rand) alg.State {
	return (recv[0] + 2) % 4
}
func (skipAlg) Output(_ int, s alg.State) int { return int(s % 4) }

func TestSkippingCounterIsNotStabilised(t *testing.T) {
	res, err := Run(Config{
		Alg:       skipAlg{},
		Seed:      3,
		MaxRounds: 500,
		Init:      []alg.State{1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stabilised {
		t.Fatal("a skipping counter must not count as stabilised")
	}
}

func TestReproducibility(t *testing.T) {
	r, _ := counter.NewRandomizedAgree(4, 1)
	cfg := Config{Alg: r, Faulty: []int{0}, Adv: adversary.Equivocate{}, Seed: 1234, MaxRounds: 20000}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestSeedsDiffer(t *testing.T) {
	r, _ := counter.NewRandomizedAgree(4, 1)
	times := make(map[uint64]bool)
	for seed := int64(0); seed < 8; seed++ {
		res, err := Run(Config{Alg: r, Faulty: []int{3}, Seed: seed, MaxRounds: 30000})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stabilised {
			times[res.StabilisationTime] = true
		}
	}
	if len(times) < 2 {
		t.Error("different seeds should give different stabilisation times")
	}
}

func TestOverloadedFlag(t *testing.T) {
	m, _ := counter.NewMaxStep(4, 4)
	res, err := Run(Config{Alg: m, Faulty: []int{0}, Seed: 1, MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overloaded {
		t.Error("one fault against a 0-resilient algorithm must set Overloaded")
	}
}

func TestMetrics(t *testing.T) {
	m, _ := counter.NewMaxStep(6, 8) // 3 state bits
	res, err := Run(Config{Alg: m, Seed: 1, MaxRounds: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesPerRound != 6*5 {
		t.Errorf("MessagesPerRound = %d, want 30", res.MessagesPerRound)
	}
	if res.BitsPerRound != 6*5*3 {
		t.Errorf("BitsPerRound = %d, want 90", res.BitsPerRound)
	}
}

func TestOnRoundTrace(t *testing.T) {
	m, _ := counter.NewMaxStep(3, 4)
	var rounds []uint64
	var lastOutputs []int
	_, err := RunFull(Config{
		Alg:       m,
		Seed:      5,
		MaxRounds: 25,
		OnRound: func(r uint64, states []alg.State, outputs []int) {
			rounds = append(rounds, r)
			lastOutputs = append([]int(nil), outputs...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 25 {
		t.Fatalf("observed %d rounds, want 25", len(rounds))
	}
	if len(lastOutputs) != 3 {
		t.Fatalf("outputs have %d entries, want 3", len(lastOutputs))
	}
}

func TestRunFullMatchesRunStabilisationTime(t *testing.T) {
	r, _ := counter.NewRandomizedAgree(4, 1)
	cfg := Config{Alg: r, Faulty: []int{1}, Seed: 77, MaxRounds: 30000}
	early, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if early.Stabilised != full.Stabilised {
		t.Fatalf("early/full disagree on stabilisation: %v vs %v", early.Stabilised, full.Stabilised)
	}
	if early.Stabilised && early.StabilisationTime != full.StabilisationTime {
		t.Fatalf("stabilisation times differ: %d vs %d", early.StabilisationTime, full.StabilisationTime)
	}
}

func TestRunManyValidation(t *testing.T) {
	triv, _ := counter.NewTrivial(4)
	if _, err := RunMany(Config{Alg: triv, MaxRounds: 10}, 0); err == nil {
		t.Error("RunMany with 0 trials should fail")
	}
}

func TestDefaultWindowFor(t *testing.T) {
	for _, c := range []int{2, 3, 10} {
		if w := DefaultWindowFor(c); w != uint64(2*c+16) {
			t.Errorf("DefaultWindowFor(%d) = %d", c, w)
		}
	}
}

func ExampleRun() {
	m, _ := counter.NewMaxStep(4, 3)
	res, _ := Run(Config{Alg: m, Seed: 42, MaxRounds: 100})
	fmt.Println(res.Stabilised, res.StabilisationTime <= 1)
	// Output: true true
}
