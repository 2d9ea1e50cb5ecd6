package registry_test

import (
	"fmt"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/registry/registrytest"
	"github.com/synchcount/synchcount/internal/sim"
)

// conformanceAdversaries is the fault model every registered algorithm
// must survive at its declared resilience: crash-like faults (silent)
// and two genuinely Byzantine strategies.
var conformanceAdversaries = []string{"silent", "splitvote", "equivocate"}

// conformanceSeeds pins the seeded grid: simulations are deterministic
// in (config, seed), so this suite locks behaviour rather than
// sampling it — a regression in any registered construction fails
// here reproducibly.
var conformanceSeeds = []int64{1, 2}

// faultPlacements returns the fault sets the suite injects: faults
// packed at the front, packed at the back, and strided across the
// ring. For the split-based ecount stacks these respectively overload
// block 0, overload block 1, and spread across both.
func faultPlacements(n, f int) [][]int {
	if f == 0 {
		return [][]int{nil}
	}
	front := make([]int, 0, f)
	back := make([]int, 0, f)
	spread := make([]int, 0, f)
	for j := 0; j < f; j++ {
		front = append(front, j)
		back = append(back, n-1-j)
		spread = append(spread, j*n/f)
	}
	return [][]int{front, back, spread}
}

// TestConformance is the cross-algorithm spec suite: every registered
// algorithm, over its declared conformance cells, under crash and
// Byzantine adversaries at its declared resilience, must
//
//  1. stabilise within its simulation horizon,
//  2. stabilise within its *declared* bound when it declares one, and
//  3. count modulo c from then on — verified by running the same
//     execution to a fixed horizon past the confirmed window and
//     requiring zero violations.
//
// Registering a new algorithm with cells in registrytest.Cells is all
// it takes to put it under this contract; a registered name without
// cells fails here.
func TestConformance(t *testing.T) {
	registered := map[string]bool{}
	for _, name := range registry.Names() {
		registered[name] = true
	}
	for name := range registrytest.Cells {
		if !registered[name] {
			t.Errorf("conformance cells for unregistered algorithm %q", name)
		}
	}
	for _, spec := range registry.Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			cells := registrytest.Cells[spec.Name]
			if len(cells) == 0 {
				t.Fatal("registered without conformance cells")
			}
			for _, cell := range cells {
				a, err := spec.Build(cell)
				if err != nil {
					t.Fatalf("cell %v: %v", cell, err)
				}
				// Every registered stack must ride a fast round kernel,
				// vectorized or bit-sliced: per-node Step remains the
				// semantic reference, but a registered algorithm with
				// neither hook silently degrades every campaign to the
				// slow path.
				_, batch := a.(alg.BatchStepper)
				sliced, ok := a.(alg.BitSliceStepper)
				if !batch && !(ok && sliced.SliceBits() > 0) {
					t.Fatalf("cell %v: %T implements neither alg.BatchStepper nor a qualifying alg.BitSliceStepper", cell, a)
				}
				bound, hasBound := uint64(0), false
				if b, ok := a.(alg.Bound); ok {
					bound, hasBound = b.StabilisationBound(), true
				}
				maxRounds := spec.MaxRounds(a)
				// One trajectory memo per cell: the count-mod-c-forever
				// full replays ride the fast-forward path and share
				// detected cycles across placements and seeds (silent
				// and splitvote are snapshottable; equivocate keeps
				// exercising the plain kernel). One explicit slow-path
				// replay below stays as the canary holding the fast
				// path to the simulated truth.
				memo := harness.NewTrajectoryMemo(0)
				memoAlg := fmt.Sprintf("%s/%v", spec.Name, cell)
				canaried := false
				for _, advName := range conformanceAdversaries {
					adv, err := adversary.ByName(advName)
					if err != nil {
						t.Fatal(err)
					}
					for _, faulty := range faultPlacements(a.N(), a.F()) {
						for _, seed := range conformanceSeeds {
							res, err := sim.Run(sim.Config{
								Alg:       a,
								Faulty:    faulty,
								Adv:       adv,
								Seed:      seed,
								MaxRounds: maxRounds,
								Memo:      memo,
								MemoAlg:   memoAlg,
							})
							if err != nil {
								t.Fatal(err)
							}
							if !res.Stabilised {
								t.Fatalf("cell %v adv=%s faulty=%v seed=%d: did not stabilise within %d rounds",
									cell, advName, faulty, seed, res.RoundsRun)
							}
							if hasBound && res.StabilisationTime > bound {
								t.Fatalf("cell %v adv=%s faulty=%v seed=%d: T = %d exceeds declared bound %d",
									cell, advName, faulty, seed, res.StabilisationTime, bound)
							}
							// Counting must persist: replay the same
							// execution (same seed, deterministic
							// simulator) past the confirmation window
							// and demand zero violations. The replay
							// rides the fast-forward path with the
							// cell's shared memo.
							window := sim.DefaultWindowFor(a.C())
							fullCfg := sim.Config{
								Alg:       a,
								Faulty:    faulty,
								Adv:       adv,
								Seed:      seed,
								MaxRounds: res.StabilisationTime + window + 512,
								Memo:      memo,
								MemoAlg:   memoAlg,
							}
							full, err := sim.RunFull(fullCfg)
							if err != nil {
								t.Fatal(err)
							}
							if !full.Stabilised {
								t.Fatalf("cell %v adv=%s faulty=%v seed=%d: full replay lost stabilisation",
									cell, advName, faulty, seed)
							}
							if full.Violations != 0 {
								t.Fatalf("cell %v adv=%s faulty=%v seed=%d: %d violations after stabilisation — counter does not count forever",
									cell, advName, faulty, seed, full.Violations)
							}
							// Slow-path canary: the first replay of each
							// cell also runs with fast-forward disabled
							// and must agree bit for bit, so a fast-path
							// regression cannot hide behind the suite
							// having moved onto it wholesale.
							if !canaried {
								canaried = true
								slowCfg := fullCfg
								slowCfg.NoFastForward = true
								slowCfg.Memo = nil
								slow, err := sim.RunFull(slowCfg)
								if err != nil {
									t.Fatal(err)
								}
								if slow != full {
									t.Fatalf("cell %v adv=%s faulty=%v seed=%d: fast-forwarded replay %+v != slow-path canary %+v",
										cell, advName, faulty, seed, full, slow)
								}
							}
						}
					}
				}
			}
		})
	}
}
