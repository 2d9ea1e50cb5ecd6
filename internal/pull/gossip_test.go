package pull

import (
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/sim"
)

// pullSpread places f faults evenly across n nodes.
func pullSpread(n, f int) []int {
	out := make([]int, 0, f)
	for j := 0; j < f; j++ {
		out = append(out, j*n/f)
	}
	return out
}

func TestNewGossipValidation(t *testing.T) {
	cases := []struct {
		n, c, k int
	}{
		{1, 8, 4},  // too few nodes
		{10, 1, 4}, // degenerate modulus
		{10, 8, 0}, // no samples
	}
	for _, cse := range cases {
		if _, err := NewGossip(cse.n, cse.c, cse.k, 1); err == nil {
			t.Errorf("NewGossip(%d,%d,%d) accepted", cse.n, cse.c, cse.k)
		}
	}
	if _, err := NewGossip(300, 8, 16, 1); err != nil {
		t.Fatalf("valid gossip rejected: %v", err)
	}
}

func TestGossipStabilisesAndCounts(t *testing.T) {
	g, err := NewGossip(300, 8, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		r, err := sim.RunPullFull(sim.PullConfig{
			Alg:       g,
			Faulty:    pullSpread(300, 3),
			Adv:       adversary.Equivocate{},
			Seed:      seed,
			MaxRounds: 300,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Stabilised {
			t.Errorf("seed %d: did not stabilise", seed)
			continue
		}
		// Once the correct nodes agree they count in lockstep: any
		// violation would need a node whose fixed samples are
		// majority-faulty, which a 1% fault density cannot produce.
		if r.Violations != 0 {
			t.Errorf("seed %d: %d post-stabilisation violations", seed, r.Violations)
		}
	}
}

func TestGossipPullBudget(t *testing.T) {
	g, err := NewGossip(64, 4, 9, 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runEarly(sim.PullConfig{
		Alg:       g,
		Faulty:    []int{0, 32},
		Adv:       adversary.Silent{},
		Seed:      1,
		MaxRounds: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxPulls != 9 || r.MeanPulls != 9 {
		t.Errorf("pull budget: max=%d mean=%f, want 9/9", r.MaxPulls, r.MeanPulls)
	}
}

func TestSamplerContract(t *testing.T) {
	if _, err := newSampler(1, 1); err == nil {
		t.Error("sampler accepted n=1")
	}
	for _, n := range []int{2, 3, 17, 1000} {
		s, err := newSampler(99, n)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := newSampler(99, n)
		for node := 0; node < n && node < 64; node++ {
			for slot := 0; slot < 16; slot++ {
				tgt := s.Target(node, slot)
				if tgt < 0 || tgt >= n {
					t.Fatalf("n=%d: target %d out of range", n, tgt)
				}
				if tgt == node {
					t.Fatalf("n=%d: node %d sampled itself", n, node)
				}
				if again.Target(node, slot) != tgt {
					t.Fatalf("n=%d: sampler not deterministic", n)
				}
			}
		}
	}
}

// TestGossipDeterministicGivenSeed pins the Corollary 5 property the
// fixed wiring buys: the whole trajectory is a function of (wiring,
// seed), so rerunning a configuration reproduces the Result exactly.
func TestGossipDeterministicGivenSeed(t *testing.T) {
	g, err := NewGossip(200, 6, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.PullConfig{
		Alg:       g,
		Faulty:    []int{10, 110},
		Adv:       adversary.Equivocate{},
		Seed:      13,
		MaxRounds: 200,
	}
	a, err := runEarly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runEarly(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("gossip run not reproducible: %+v vs %+v", a, b)
	}
}
