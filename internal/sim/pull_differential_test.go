package sim_test

import (
	"fmt"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/boost"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/pull"
	"github.com/synchcount/synchcount/internal/recursion"
	"github.com/synchcount/synchcount/internal/sim"
)

// Every batch algorithm of internal/pull takes the sparse batch round; a
// signature drift would otherwise fall back to the reference loop
// silently.
var (
	_ sim.PullBatchStepper = pull.Broadcast{}
	_ sim.PullBatchStepper = (*pull.Gossip)(nil)
	_ sim.PullBatchStepper = (*pull.SampledCounter)(nil)
)

// pullKernelAdversaries are the strategies the pull equivalence grid
// runs: every stateless built-in behaviour class, including the
// shared-stream equivocator whose draws make faulty responses
// order-sensitive across the whole round — the hardest exercise of the
// batch path's pull-ordering contract.
var pullKernelAdversaries = []string{"silent", "random", "splitvote", "equivocate"}

// pullTop builds the boosted counter of the given recursion plan.
func pullTop(t testing.TB, p recursion.Plan) *boost.Counter {
	t.Helper()
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// sampled123 returns the two-level A(12,3) stack wrapped with sampling:
// M samples per vote, fixed wiring drawn from wireSeed when pseudo.
func sampled123(t testing.TB, c, m int, pseudo bool, wireSeed int64) *pull.SampledCounter {
	t.Helper()
	top := pullTop(t, recursion.Plan{Levels: []recursion.Level{{K: 4, F: 1}, {K: 3, F: 3}}, C: c})
	s, err := pull.NewSampled(top, m, pseudo, wireSeed)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// top41 returns the boosted A(4,1) counter with modulus 8.
func top41(t testing.TB) *boost.Counter {
	t.Helper()
	p, err := recursion.Corollary1(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return pullTop(t, p)
}

func TestPullRunValidation(t *testing.T) {
	s, err := pull.NewSampled(top41(t), 8, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		cfg  sim.PullConfig
	}{
		{"nil alg", sim.PullConfig{MaxRounds: 10}},
		{"zero rounds", sim.PullConfig{Alg: s}},
		{"faulty out of range", sim.PullConfig{Alg: s, MaxRounds: 10, Faulty: []int{99}}},
		{"faulty duplicate", sim.PullConfig{Alg: s, MaxRounds: 10, Faulty: []int{1, 1}}},
		{"bad init", sim.PullConfig{Alg: s, MaxRounds: 10, Init: []alg.State{1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			tt.cfg.StopEarly = true
			if _, err := sim.RunPull(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// pullKernelGrid enumerates one (algorithm, faults) cell per sparse
// batch implementation and mode: the broadcast embedding over a
// deterministic and a randomised base, the sampled counter with fresh
// coins and with fixed wiring, and the fixed-wiring gossip dynamic.
func pullKernelGrid(t *testing.T) []struct {
	name   string
	build  func() sim.PullAlgorithm
	faults []int
} {
	t.Helper()
	randAgree := func() sim.PullAlgorithm {
		a, err := counter.NewRandomizedAgree(12, 2)
		if err != nil {
			t.Fatal(err)
		}
		return pull.Broadcast{A: a}
	}
	return []struct {
		name   string
		build  func() sim.PullAlgorithm
		faults []int
	}{
		{"broadcast/boost", func() sim.PullAlgorithm { return pull.Broadcast{A: top41(t)} }, []int{1}},
		{"broadcast/randagree", randAgree, spreadFaults(12, 2)},
		{"sampled/fresh", func() sim.PullAlgorithm { return sampled123(t, 8, 8, false, 0) }, []int{2, 9}},
		{"sampled/pseudo", func() sim.PullAlgorithm { return sampled123(t, 8, 8, true, 17) }, []int{2, 9}},
		{"gossip", func() sim.PullAlgorithm {
			g, err := pull.NewGossip(64, 8, 12, 5)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, spreadFaults(64, 6)},
	}
}

// TestPullKernelMatchesReference is the sparse-vs-reference
// differential suite: every batch implementation, under every built-in
// adversary class, across a seeded grid, must produce byte-identical
// Results from the batch round and the retained closure reference
// loop. This is the contract that lets the sparse round replace the
// closure loop underneath every pulling-model campaign.
func TestPullKernelMatchesReference(t *testing.T) {
	seeds := []int64{3, 44}
	for _, cell := range pullKernelGrid(t) {
		a := cell.build()
		for _, advName := range pullKernelAdversaries {
			if advName != "silent" && len(cell.faults) == 0 {
				continue
			}
			adv, err := adversary.ByName(advName)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range seeds {
				label := fmt.Sprintf("%s/%s/seed=%d", cell.name, advName, seed)
				cfg := sim.PullConfig{
					Alg:       a,
					Faulty:    cell.faults,
					Adv:       adv,
					Seed:      seed,
					MaxRounds: 192,
					StopEarly: true,
				}
				want, err := sim.RunPullReference(cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := sim.RunPull(cfg)
				if err != nil {
					t.Fatalf("%s: batch: %v", label, err)
				}
				if got != want {
					t.Errorf("%s: kernel diverged:\n  batch     %+v\n  reference %+v", label, got, want)
				}
			}
		}
	}
}

// TestPullKernelMatchesReferenceFull double-checks equality on the
// RunPullFull path (violations accounting after stabilisation) for one
// deterministic and one randomised batch algorithm.
func TestPullKernelMatchesReferenceFull(t *testing.T) {
	for _, cell := range pullKernelGrid(t) {
		if cell.name != "sampled/fresh" && cell.name != "gossip" {
			continue
		}
		a := cell.build()
		cfg := sim.PullConfig{
			Alg:       a,
			Faulty:    cell.faults,
			Adv:       splitVote,
			Seed:      11,
			MaxRounds: 256,
			StopEarly: false,
		}
		want, err := sim.RunPullReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunPullFull(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: RunPullFull diverged:\n  batch     %+v\n  reference %+v", cell.name, got, want)
		}
	}
}

// TestPullKernelObserverParity pins the batch path under an OnRound
// observer (the unpooled scratch route) against the reference trace.
func TestPullKernelObserverParity(t *testing.T) {
	g, err := pull.NewGossip(48, 6, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	trace := func(ref bool) []uint64 {
		var rows []uint64
		cfg := sim.PullConfig{
			Alg:       g,
			Faulty:    spreadFaults(48, 4),
			Adv:       adversary.Equivocate{},
			Seed:      7,
			MaxRounds: 64,
			OnRound: func(round uint64, states []uint64, outputs []int) {
				rows = append(rows, states...)
			},
		}
		var runErr error
		if ref {
			_, runErr = sim.RunPullReference(cfg)
		} else {
			_, runErr = sim.RunPullFull(cfg)
		}
		if runErr != nil {
			t.Fatal(runErr)
		}
		return rows
	}
	want, got := trace(true), trace(false)
	if len(want) != len(got) {
		t.Fatalf("trace lengths differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("state trace diverged at %d: %d vs %d", i, want[i], got[i])
		}
	}
}
