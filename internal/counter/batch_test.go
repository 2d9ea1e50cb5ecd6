package counter

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/alg/algtest"
)

// batchKernel returns the counter's all-nodes transition: StepAll for
// an alg.BatchStepper, and for a counter without one (the randomised
// counters) StepAllSliced over planes built from the same round, the
// way the simulator's kernel builds them. It returns nil when the
// counter has neither.
func batchKernel(a alg.Algorithm) func(next, base []alg.State, p *alg.Patches, rngs []*rand.Rand) {
	if bs, ok := a.(alg.BatchStepper); ok {
		return bs.StepAll
	}
	ss, ok := a.(alg.BitSliceStepper)
	if !ok || ss.SliceBits() == 0 {
		return nil
	}
	return func(next, base []alg.State, p *alg.Patches, rngs []*rand.Rand) {
		var pl alg.BitPlanes
		pl.Provision(len(base), ss.SliceBits(), p.Faulty)
		pl.PackStates(base)
		pl.ScatterRows(p.Values, ss.StateSpace())
		ss.StepAllSliced(next, &pl, p, rngs)
	}
}

// TestBatchStepMatchesStep holds every counter's all-nodes kernel to
// the per-node transition over random configurations. The randomised
// counters run with per-node rngs seeded identically on both sides:
// equal shared bit counts must lead to the exact same draw sequence.
// The trials cycle through algtest.RowSharings, so MaxStep's
// once-per-class path runs on labelled receiver classes too.
func TestBatchStepMatchesStep(t *testing.T) {
	trivial, _ := NewTrivial(6)
	maxstep, _ := NewMaxStep(7, 5)
	agree, _ := NewRandomizedAgree(10, 3)
	for _, tc := range []struct {
		name string
		a    alg.Algorithm
	}{
		{"trivial", trivial},
		{"maxstep", maxstep},
		{"randagree", agree},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			stepAll := batchKernel(a)
			if stepAll == nil {
				t.Fatalf("%T has neither a batch nor a bit-sliced kernel", a)
			}
			n := a.N()
			space := a.StateSpace()
			rng := rand.New(rand.NewSource(5))
			for trial := 0; trial < 128; trial++ {
				states := make([]alg.State, n)
				for i := range states {
					states[i] = rng.Uint64() % space
				}
				faulty := make([]bool, n)
				var senders []int
				nf := rng.Intn(a.F() + 2)
				if nf >= n {
					nf = n - 1
				}
				for len(senders) < nf {
					u := rng.Intn(n)
					if !faulty[u] {
						faulty[u] = true
						senders = senders[:0]
						for i, f := range faulty {
							if f {
								senders = append(senders, i)
							}
						}
					}
				}
				sharing := algtest.RowSharings[trial%len(algtest.RowSharings)]
				values, class := algtest.ClassedRows(rng, sharing, faulty, len(senders), space)
				p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values, Class: class}

				// Identically seeded per-node rngs for both paths.
				seeds := make([]int64, n)
				for i := range seeds {
					seeds[i] = rng.Int63()
				}
				refRngs := make([]*rand.Rand, n)
				batchRngs := make([]*rand.Rand, n)
				for i := range seeds {
					refRngs[i] = rand.New(rand.NewSource(seeds[i]))
					batchRngs[i] = rand.New(rand.NewSource(seeds[i]))
				}

				wantNext := make([]alg.State, n)
				recv := make([]alg.State, n)
				for v := 0; v < n; v++ {
					if faulty[v] {
						continue
					}
					copy(recv, states)
					p.Apply(recv, v)
					wantNext[v] = a.Step(v, recv, refRngs[v])
				}

				gotNext := make([]alg.State, n)
				for v := range gotNext {
					gotNext[v] = algtest.Untouched
				}
				stepAll(gotNext, states, p, batchRngs)
				for v := 0; v < n; v++ {
					if faulty[v] && gotNext[v] != algtest.Untouched {
						t.Fatalf("trial %d: batch kernel wrote faulty node %d", trial, v)
					}
					if !faulty[v] && gotNext[v] != wantNext[v] {
						t.Fatalf("trial %d: node %d: batch kernel %d, Step %d (faults %v)",
							trial, v, gotNext[v], wantNext[v], senders)
					}
				}
				// The rng streams must have advanced identically.
				for v := 0; v < n; v++ {
					if faulty[v] {
						continue
					}
					if refRngs[v].Int63() != batchRngs[v].Int63() {
						t.Fatalf("trial %d: node %d consumed a different number of rng draws", trial, v)
					}
				}
			}
		})
	}
}
