package boost

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/alg/algtest"
)

// batchEquivCheck drives StepAll and per-node Step over the same
// random configurations — arbitrary states, arbitrary fault sets,
// arbitrary per-receiver forged values — and requires identical next
// states. The trials cycle through algtest.RowSharings, so StepAll's
// once-per-class path runs on alternating, all-equal and mixed
// receiver classes as well as on unlabelled rows. This is the
// per-package unit complement of the end-to-end kernel differential
// suite.
func batchEquivCheck(t *testing.T, a alg.Algorithm, trials int, seed int64) {
	t.Helper()
	bs, ok := a.(alg.BatchStepper)
	if !ok {
		t.Fatalf("%T does not implement alg.BatchStepper", a)
	}
	n := a.N()
	space := a.StateSpace()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		states := make([]alg.State, n)
		for i := range states {
			states[i] = rng.Uint64() % space
		}
		faulty := make([]bool, n)
		var senders []int
		nf := rng.Intn(a.F() + 2)
		for len(senders) < nf {
			u := rng.Intn(n)
			if !faulty[u] {
				faulty[u] = true
				senders = nil
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

		// Per-node reference: Step on the patched vector.
		wantNext := make([]alg.State, n)
		recv := make([]alg.State, n)
		for v := 0; v < n; v++ {
			if faulty[v] {
				continue
			}
			copy(recv, states)
			p.Apply(recv, v)
			wantNext[v] = a.Step(v, recv, nil)
		}

		gotNext := make([]alg.State, n)
		for v := range gotNext {
			gotNext[v] = algtest.Untouched
		}
		bs.StepAll(gotNext, states, p, make([]*rand.Rand, n))
		for v := 0; v < n; v++ {
			if faulty[v] {
				if gotNext[v] != algtest.Untouched {
					t.Fatalf("trial %d: StepAll wrote faulty node %d", trial, v)
				}
				continue
			}
			if gotNext[v] != wantNext[v] {
				t.Fatalf("trial %d: node %d: StepAll %d, Step %d (faults %v)",
					trial, v, gotNext[v], wantNext[v], senders)
			}
		}
	}
}

// TestBatchStepMatchesStep holds the boosted counter's StepAll to the
// per-node transition on one level and on a two-level stack (where the
// sub-stepping recurses through the base's own StepAll).
func TestBatchStepMatchesStep(t *testing.T) {
	one := new41(t, 960)
	batchEquivCheck(t, one, 64, 17)

	top, err := New(one, Params{K: 3, F: 3, C: 7})
	if err != nil {
		t.Fatal(err)
	}
	batchEquivCheck(t, top, 32, 23)
}

// TestStepAllAllocsZero requires StepAll on a two-level stack to
// allocate nothing in a round whose receivers fall into shared
// classes.
func TestStepAllAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	top, err := New(new41(t, 960), Params{K: 3, F: 3, C: 7})
	if err != nil {
		t.Fatal(err)
	}
	n := top.N()
	rng := rand.New(rand.NewSource(3))
	base := make([]alg.State, n)
	for i := range base {
		base[i] = rng.Uint64() % top.StateSpace()
	}
	faulty := make([]bool, n)
	senders := []int{1, n / 2, n - 1}
	for _, u := range senders {
		faulty[u] = true
	}
	values, class := algtest.ClassedRows(rng, "alternating", faulty, len(senders), top.StateSpace())
	p := &alg.Patches{Faulty: faulty, Senders: senders, Values: values, Class: class}
	next := make([]alg.State, n)
	rngs := make([]*rand.Rand, n)
	if allocs := testing.AllocsPerRun(200, func() { top.StepAll(next, base, p, rngs) }); allocs != 0 {
		t.Errorf("StepAll allocates %.0f objects per call, want 0", allocs)
	}
}
