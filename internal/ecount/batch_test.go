package ecount

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/alg/algtest"
)

// TestBatchStepMatchesStep drives the counter's StepAll and per-node
// Step over random configurations — arbitrary states, fault sets and
// per-receiver forged values — and requires both to produce the next
// states of the map-backed stepReference, on both recursion shapes
// (the balanced split recurses through nested ecount counters, the
// chain split through a MaxStep leaf every level). Step and StepAll
// share their per-receiver tail, so each is pinned to the independent
// oracle rather than to the other. The trials cycle through
// algtest.RowSharings, so StepAll's once-per-class path runs on
// alternating, all-equal and mixed receiver classes as well as on
// unlabelled rows.
func TestBatchStepMatchesStep(t *testing.T) {
	balanced, err := New(10, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := NewChain(10, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		a    *Counter
	}{
		{"balanced", balanced},
		{"chain", chain},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			n := a.N()
			space := a.StateSpace()
			rng := rand.New(rand.NewSource(31))
			traj := trajectory(a, int(a.StabilisationBound()+a.Period()))
			var sweeps int
			for trial := 0; trial < 96; trial++ {
				// Odd trials start from a sweep configuration, where
				// the consensus branch runs.
				var states []alg.State
				if trial%2 == 1 {
					states = sweepView(a, traj, rng)
				} else {
					states = make([]alg.State, n)
					for i := range states {
						states[i] = rng.Uint64() % space
					}
				}
				faulty := make([]bool, n)
				var senders []int
				for len(senders) < rng.Intn(a.F()+2) {
					u := rng.Intn(n)
					if !faulty[u] {
						faulty[u] = true
						senders = append(senders[:0], collect(faulty)...)
					}
				}
				sharing := algtest.RowSharings[trial%len(algtest.RowSharings)]
				values, class := algtest.ClassedRows(rng, sharing, faulty, len(senders), space)
				p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values, Class: class}

				wantNext := make([]alg.State, n)
				recv := make([]alg.State, n)
				for v := 0; v < n; v++ {
					if faulty[v] {
						continue
					}
					copy(recv, states)
					p.Apply(recv, v)
					if matches(a, v, recv) > 0 {
						sweeps++
					}
					wantNext[v] = a.stepReference(v, recv, nil)
					if got := a.Step(v, recv, nil); got != wantNext[v] {
						t.Fatalf("trial %d: node %d: Step %d, stepReference %d (faults %v)",
							trial, v, got, wantNext[v], senders)
					}
				}

				gotNext := make([]alg.State, n)
				for v := range gotNext {
					gotNext[v] = algtest.Untouched
				}
				a.StepAll(gotNext, states, p, make([]*rand.Rand, n))
				for v := 0; v < n; v++ {
					if faulty[v] && gotNext[v] != algtest.Untouched {
						t.Fatalf("trial %d: StepAll wrote faulty node %d", trial, v)
					}
					if !faulty[v] && gotNext[v] != wantNext[v] {
						t.Fatalf("trial %d: node %d: StepAll %d, stepReference %d (faults %v)",
							trial, v, gotNext[v], wantNext[v], senders)
					}
				}
			}
			if sweeps == 0 {
				t.Fatal("no receiver executed a sweep instruction")
			}
		})
	}
}

func collect(faulty []bool) []int {
	var out []int
	for i, f := range faulty {
		if f {
			out = append(out, i)
		}
	}
	return out
}
