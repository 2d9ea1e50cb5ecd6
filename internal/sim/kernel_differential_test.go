package sim_test

import (
	"fmt"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
)

// kernelAdversaries are the strategies the equivalence grid runs:
// every built-in behaviour class (crash, broadcast noise, per-receiver
// equivocation, vote splitting) plus — for deterministic algorithms —
// the stateful greedy lookahead, which exercises the adversary-rng
// call-order contract of the kernel hardest. Between them they cover
// every receiver-class layout the kernel's row classification yields:
// one class (silent, mirror), two (splitvote), none (equivocate) and
// more distinct rows than its cap (spread).
var kernelAdversaries = []string{"silent", "mirror", "random", "splitvote", "spread", "equivocate", "greedy"}

// spreadFaults places f faults evenly across n nodes — enough to put
// faulty senders in different blocks of the recursive constructions.
func spreadFaults(n, f int) []int {
	out := make([]int, 0, f)
	for j := 0; j < f; j++ {
		out = append(out, j*n/f)
	}
	return out
}

// TestKernelMatchesReference is the three-way differential suite:
// every registered algorithm, under every adversary class, across a
// seeded grid, must produce byte-identical sim.Results from the
// scalar reference loop, the vectorized kernel (sim.Run with
// NoBitSlice) and — for algorithms qualifying via alg.BitSliceStepper
// — the bit-sliced kernel (plain sim.Run). This is the contract that
// lets the kernels replace the reference loop underneath every golden
// file in the repository.
func TestKernelMatchesReference(t *testing.T) {
	seeds := []int64{3, 44}
	for _, name := range registry.Names() {
		spec, err := registry.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cells := spec.Conformance
		if testing.Short() && len(cells) > 1 {
			cells = cells[:1]
		}
		for _, cell := range cells {
			a, err := spec.Build(cell)
			if err != nil {
				t.Fatalf("%s(%v): %v", name, cell, err)
			}
			maxRounds := spec.MaxRounds(a)
			if maxRounds > 768 {
				// Equality must hold round for round, so a truncated
				// horizon loses no coverage and keeps the grid fast.
				maxRounds = 768
			}
			faults := spreadFaults(a.N(), a.F())
			for _, advName := range kernelAdversaries {
				adv, greedy := kernelAdversary(t, advName, a)
				if advName == "greedy" && greedy == nil {
					continue // randomised algorithm: no lookahead
				}
				if advName != "silent" && len(faults) == 0 {
					continue // fault-free: all adversaries are moot
				}
				for _, seed := range seeds {
					label := fmt.Sprintf("%s/%v/%s/seed=%d", name, cell, advName, seed)
					cfg := sim.Config{
						Alg:       a,
						Faulty:    faults,
						Adv:       adv,
						Seed:      seed,
						MaxRounds: maxRounds,
						StopEarly: true, // mirror sim.Run on the reference side
					}
					// The greedy adversary caches per-round state, so
					// each loop needs a private instance.
					if greedy != nil {
						cfg.Adv = greedy()
					}
					want, err := sim.RunReference(cfg)
					if err != nil {
						t.Fatalf("%s: reference: %v", label, err)
					}
					if greedy != nil {
						cfg.Adv = greedy()
					}
					cfg.NoBitSlice = true
					got, err := sim.Run(cfg)
					if err != nil {
						t.Fatalf("%s: vectorized: %v", label, err)
					}
					if got != want {
						t.Errorf("%s: kernel diverged:\n  vectorized %+v\n  reference  %+v", label, got, want)
					}
					if bs, ok := a.(alg.BitSliceStepper); ok && bs.SliceBits() > 0 {
						if greedy != nil {
							cfg.Adv = greedy()
						}
						cfg.NoBitSlice = false
						got, err := sim.Run(cfg)
						if err != nil {
							t.Fatalf("%s: bit-sliced: %v", label, err)
						}
						if got != want {
							t.Errorf("%s: bit-sliced kernel diverged:\n  bit-sliced %+v\n  reference  %+v", label, got, want)
						}
					}
					cfg.NoBitSlice = false
				}
			}
		}
	}
}

// kernelAdversary resolves an adversary name; for "greedy" it returns
// a constructor (the lookahead is stateful) or nil when the algorithm
// is randomised.
func kernelAdversary(t *testing.T, name string, a alg.Algorithm) (adversary.Adversary, func() adversary.Adversary) {
	t.Helper()
	if name == "greedy" {
		if !alg.IsDeterministic(a) {
			return nil, nil
		}
		return nil, func() adversary.Adversary {
			g, err := adversary.NewGreedy(a, adversary.Equivocate{}, 3)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	adv, err := adversary.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return adv, nil
}

// TestKernelMatchesReferenceStopEarlyOff double-checks equality on the
// RunFull path (violations accounting after stabilisation) for one
// deterministic and one randomised algorithm.
func TestKernelMatchesReferenceStopEarlyOff(t *testing.T) {
	for _, name := range []string{"ecount", "randagree"} {
		a, err := registry.Build(name, registry.Params{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.Config{
			Alg:       a,
			Faulty:    spreadFaults(a.N(), a.F()),
			Adv:       adversary.SplitVote{},
			Seed:      11,
			MaxRounds: 512,
			StopEarly: false,
		}
		want, err := sim.RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunFull(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: RunFull diverged:\n  vectorized %+v\n  reference  %+v", name, got, want)
		}
	}
}
