package pull

import (
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/recursion"
)

// runEarly is RunFull's early-stopping twin: the run ends once
// stabilisation is confirmed.
func runEarly(cfg Config) (Result, error) {
	cfg.StopEarly = true
	return run(cfg)
}

// splitVote is the registry's "splitvote" strategy; the adversary
// package's own tests pin the name.
var splitVote, _ = adversary.ByName("splitvote")

func build41(t *testing.T, c int) *SampledCounter {
	t.Helper()
	p, err := recursion.Corollary1(1, c)
	if err != nil {
		t.Fatal(err)
	}
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampled(top, 8, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunValidation(t *testing.T) {
	s := build41(t, 8)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil alg", Config{MaxRounds: 10}},
		{"zero rounds", Config{Alg: s}},
		{"faulty out of range", Config{Alg: s, MaxRounds: 10, Faulty: []int{99}}},
		{"faulty duplicate", Config{Alg: s, MaxRounds: 10, Faulty: []int{1, 1}}},
		{"bad init", Config{Alg: s, MaxRounds: 10, Init: []alg.State{1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := runEarly(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestNewSampledValidation(t *testing.T) {
	if _, err := NewSampled(nil, 8, false, 0); err == nil {
		t.Error("nil top should fail")
	}
	p, _ := recursion.Corollary1(1, 8)
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampled(top, 2, false, 0); err == nil {
		t.Error("M = 2 should fail")
	}
}

func TestBroadcastEmbedding(t *testing.T) {
	// The trivial embedding pulls exactly n-1 peers per round and
	// behaves like the broadcast-model algorithm.
	m, err := counter.NewMaxStep(5, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runEarly(Config{Alg: Broadcast{A: m}, Seed: 3, MaxRounds: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised || res.StabilisationTime > 1 {
		t.Fatalf("broadcast embedding: stabilised=%v t=%d", res.Stabilised, res.StabilisationTime)
	}
	if res.MaxPulls != 4 {
		t.Fatalf("MaxPulls = %d, want 4", res.MaxPulls)
	}
}

func TestSampledPullBudget(t *testing.T) {
	// A(4,1): blocks of n=1, k=4; with M=8: 0 + 4·8 + 8 + 1 = 41 pulls.
	s := build41(t, 8)
	if got := s.PullsPerRound(); got != 41 {
		t.Fatalf("PullsPerRound = %d, want 41", got)
	}
	res, err := runEarly(Config{Alg: s, Seed: 5, MaxRounds: 3200, Window: 80})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPulls != s.PullsPerRound() {
		t.Fatalf("measured MaxPulls = %d, want %d", res.MaxPulls, s.PullsPerRound())
	}
	if !res.Stabilised {
		t.Fatal("sampled A(4,1) did not stabilise fault-free")
	}
}

// TestSampledSavesMessages is the headline of Section 5: on a 12-node
// network the sampled counter with small M pulls fewer messages per
// round than the deterministic broadcast embedding only when N is large
// relative to k·M; we check the arithmetic both ways.
func TestSampledSavesMessages(t *testing.T) {
	p, err := recursion.Figure2(8)
	if err != nil {
		t.Fatal(err)
	}
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampled(top, 4, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	// N = 36: broadcast embedding pulls 35; sampled pulls 11 + 3·4 + 4 + 1 = 28.
	if s.PullsPerRound() >= 35 {
		t.Fatalf("sampled pulls %d should beat broadcast's 35", s.PullsPerRound())
	}
}

// build123 returns the two-level A(12,3) stack wrapped with sampling.
// Sampling concentration (Lemma 8) needs the faulty fraction to sit well
// below the 1/3 threshold, so fault-injection tests run on 12 nodes with
// one or two actual faults rather than on N = 4 where a single fault is
// already 25% of the network.
func build123(t *testing.T, c, m int, pseudo bool, wireSeed int64) *SampledCounter {
	t.Helper()
	p := recursion.Plan{Levels: []recursion.Level{{K: 4, F: 1}, {K: 3, F: 3}}, C: c}
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampled(top, m, pseudo, wireSeed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSampledStabilisesWithFault(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled 12-node simulation in -short mode")
	}
	s := build123(t, 8, 24, false, 0)
	bound := s.Boosted().StabilisationBound()
	stabilised := 0
	for seed := int64(0); seed < 3; seed++ {
		res, err := runEarly(Config{
			Alg:       s,
			Faulty:    []int{int(seed*5) % 12},
			Adv:       adversary.Equivocate{},
			Seed:      seed,
			MaxRounds: bound + 2000,
			Window:    100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stabilised {
			stabilised++
		}
	}
	// One fault in twelve nodes with M = 24: misfire probability per
	// node-round is negligible; every run should stabilise.
	if stabilised < 3 {
		t.Fatalf("only %d/3 sampled runs stabilised", stabilised)
	}
}

func TestPseudoRandomWiringIsDeterministic(t *testing.T) {
	p, err := recursion.Corollary1(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSampled(top, 6, true, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSampled(top, 6, true, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Pseudo() || !b.Pseudo() {
		t.Fatal("pseudo flag lost")
	}
	cfg := Config{Alg: a, Faulty: []int{2}, Adv: adversary.Silent{}, Seed: 9, MaxRounds: 3000, Window: 80}
	ra, err := runEarly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Alg = b
	rb, err := runEarly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("same wire seed must reproduce: %+v vs %+v", ra, rb)
	}
}

// TestPseudoRandomCountsDeterministically: Corollary 5's promise — once
// a pseudo-random run stabilises, counting continues with zero
// violations (there is no residual per-round failure probability,
// because the fixed wiring makes every subsequent round deterministic).
func TestPseudoRandomCountsDeterministically(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled 12-node simulation in -short mode")
	}
	s := build123(t, 8, 24, true, 7)
	res, err := RunFull(Config{
		Alg:       s,
		Faulty:    []int{3},
		Adv:       splitVote, // oblivious: strategy ignores the wiring
		Seed:      13,
		MaxRounds: s.Boosted().StabilisationBound() + 1500,
		Window:    80,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Skip("this wiring did not stabilise (allowed with small probability)")
	}
	if res.Violations != 0 {
		t.Fatalf("pseudo-random counter violated agreement %d times after stabilising", res.Violations)
	}
}

// TestSampledStateSpaceUnchanged: sampling must not add state bits
// (Theorem 4's S(P) = S(A) + ⌈log(C+1)⌉ + 1, same as Theorem 1).
func TestSampledStateSpaceUnchanged(t *testing.T) {
	s := build41(t, 8)
	if s.StateSpace() != s.Boosted().StateSpace() {
		t.Fatalf("state space changed: %d vs %d", s.StateSpace(), s.Boosted().StateSpace())
	}
	if s.N() != 4 || s.F() != 1 || s.C() != 8 {
		t.Fatalf("N,F,C = %d,%d,%d", s.N(), s.F(), s.C())
	}
}

// TestUndersampledFails: with tiny M relative to the fault rate the
// quorum checks misfire and violations appear — the failure-probability
// trade-off of Corollary 4, from the other side.
func TestUndersampledFailsOccasionally(t *testing.T) {
	p, err := recursion.Corollary1(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSampled(top, 3, false, 0) // M = 3 on N = 4 with 1 fault
	if err != nil {
		t.Fatal(err)
	}
	violations := uint64(0)
	for seed := int64(0); seed < 6; seed++ {
		res, err := RunFull(Config{
			Alg:       s,
			Faulty:    []int{0},
			Adv:       adversary.Equivocate{},
			Seed:      seed,
			MaxRounds: 4000,
			Window:    60,
		})
		if err != nil {
			t.Fatal(err)
		}
		violations += res.Violations
	}
	t.Logf("M=3: %d post-stabilisation violations across 6 runs", violations)
	// No assertion on a positive count (it is random); the test pins that
	// the accounting runs and that the simulator survives misfires.
}
