package pull

import (
	"fmt"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/counter"
)

// pullKernelAdversaries are the strategies the pull equivalence grid
// runs: every stateless built-in behaviour class, including the
// shared-stream equivocator whose draws make faulty responses
// order-sensitive across the whole round — the hardest exercise of the
// batch path's pull-ordering contract.
var pullKernelAdversaries = []string{"silent", "random", "splitvote", "equivocate"}

// pullSpread places f faults evenly across n nodes.
func pullSpread(n, f int) []int {
	out := make([]int, 0, f)
	for j := 0; j < f; j++ {
		out = append(out, j*n/f)
	}
	return out
}

// pullKernelGrid enumerates one (algorithm, faults) cell per sparse
// batch implementation and mode: the broadcast embedding over a
// deterministic and a randomised base, the sampled counter with fresh
// coins and with fixed wiring, and the fixed-wiring gossip dynamic.
func pullKernelGrid(t *testing.T) []struct {
	name   string
	build  func() Algorithm
	faults []int
} {
	t.Helper()
	randAgree := func() Algorithm {
		a, err := counter.NewRandomizedAgree(12, 2)
		if err != nil {
			t.Fatal(err)
		}
		return Broadcast{A: a}
	}
	return []struct {
		name   string
		build  func() Algorithm
		faults []int
	}{
		{"broadcast/boost", func() Algorithm { return Broadcast{A: build41(t, 8).top} }, []int{1}},
		{"broadcast/randagree", randAgree, pullSpread(12, 2)},
		{"sampled/fresh", func() Algorithm { return build123(t, 8, 8, false, 0) }, []int{2, 9}},
		{"sampled/pseudo", func() Algorithm { return build123(t, 8, 8, true, 17) }, []int{2, 9}},
		{"gossip", func() Algorithm {
			g, err := NewGossip(64, 6, 8, 12, 5)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, pullSpread(64, 6)},
	}
}

// TestPullKernelMatchesReference is the sparse-vs-reference
// differential suite: every batch implementation, under every built-in
// adversary class, across a seeded grid, must produce byte-identical
// Results from the batch kernel (Run) and the retained scalar reference
// loop. This is the contract that lets the sparse kernel replace the
// closure loop underneath every pulling-model campaign.
func TestPullKernelMatchesReference(t *testing.T) {
	seeds := []int64{3, 44}
	for _, cell := range pullKernelGrid(t) {
		a := cell.build()
		if _, ok := a.(batchStepper); !ok {
			t.Fatalf("%s: grid algorithm has no batch path", cell.name)
		}
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
				cfg := Config{
					Alg:       a,
					Faulty:    cell.faults,
					Adv:       adv,
					Seed:      seed,
					MaxRounds: 192,
					StopEarly: true,
				}
				want, err := runReference(cfg)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				got, err := runEarly(cfg)
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
// RunFull path (violations accounting after stabilisation) for one
// deterministic and one randomised batch algorithm.
func TestPullKernelMatchesReferenceFull(t *testing.T) {
	for _, cell := range pullKernelGrid(t) {
		if cell.name != "sampled/fresh" && cell.name != "gossip" {
			continue
		}
		a := cell.build()
		cfg := Config{
			Alg:       a,
			Faulty:    cell.faults,
			Adv:       splitVote,
			Seed:      11,
			MaxRounds: 256,
			StopEarly: false,
		}
		want, err := runReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunFull(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: RunFull diverged:\n  batch     %+v\n  reference %+v", cell.name, got, want)
		}
	}
}

// TestPullKernelObserverParity pins the batch path under an OnRound
// observer (the unpooled scratch route) against the reference trace.
func TestPullKernelObserverParity(t *testing.T) {
	g, err := NewGossip(48, 4, 6, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	trace := func(ref bool) []uint64 {
		var rows []uint64
		cfg := Config{
			Alg:       g,
			Faulty:    pullSpread(48, 4),
			Adv:       adversary.Equivocate{},
			Seed:      7,
			MaxRounds: 64,
			OnRound: func(round uint64, states []uint64, outputs []int) {
				for _, s := range states {
					rows = append(rows, s)
				}
			},
		}
		var runErr error
		if ref {
			_, runErr = runReference(cfg)
		} else {
			_, runErr = RunFull(cfg)
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
