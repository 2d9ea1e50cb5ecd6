package counter

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

// buildRound fabricates one round's inputs in both layouts: the
// horizontal base/patches the batch path consumes and the transposed
// planes the bit-sliced path consumes, with random states, a random
// fault mask of nf nodes and random patch values.
func buildRound(rng *rand.Rand, n, nf int, space uint64, bits int) (base []alg.State, p *alg.Patches, pl *alg.BitPlanes) {
	faulty := make([]bool, n)
	for placed := 0; placed < nf; {
		v := rng.Intn(n)
		if !faulty[v] {
			faulty[v] = true
			placed++
		}
	}
	senders := make([]int, 0, nf)
	for v, f := range faulty {
		if f {
			senders = append(senders, v)
		}
	}
	base = make([]alg.State, n)
	for v := range base {
		base[v] = rng.Uint64() % space
	}
	pl = &alg.BitPlanes{}
	pl.Provision(n, bits, faulty)
	pl.PackStates(base)
	values := make([][]alg.State, n)
	for v := 0; v < n; v++ {
		if faulty[v] {
			continue
		}
		row := make([]alg.State, nf)
		for j := range row {
			row[j] = rng.Uint64() % space
		}
		values[v] = row
	}
	pl.ScatterRows(values, space)
	p = &alg.Patches{Faulty: faulty, Senders: senders, Values: values}
	return base, p, pl
}

// seededRngs returns two identically seeded per-node rng banks so the
// two stepping paths can prove they consume the streams identically.
func seededRngs(rng *rand.Rand, n int) (a, b []*rand.Rand) {
	a = make([]*rand.Rand, n)
	b = make([]*rand.Rand, n)
	for v := 0; v < n; v++ {
		seed := rng.Int63()
		a[v] = rand.New(rand.NewSource(seed))
		b[v] = rand.New(rand.NewSource(seed))
	}
	return a, b
}

// stepPair runs StepAllSliced and per-node Step on identical inputs
// and requires identical next states and identical subsequent rng
// draws.
func stepPair(t *testing.T, label string, a alg.BitSliceStepper, rng *rand.Rand, n, nf int) {
	t.Helper()
	bits := a.SliceBits()
	if bits <= 0 {
		t.Fatalf("%s: SliceBits() = %d, want > 0", label, bits)
	}
	space := a.StateSpace()
	base, p, pl := buildRound(rng, n, nf, space, bits)
	rngsScalar, rngsSliced := seededRngs(rng, n)

	sentinel := ^alg.State(0)
	nextSliced := make([]alg.State, n)
	for v := range nextSliced {
		nextSliced[v] = sentinel
	}
	a.StepAllSliced(nextSliced, pl, p, rngsSliced)

	recv := make([]alg.State, n)
	for v := 0; v < n; v++ {
		if p.Faulty[v] {
			if nextSliced[v] != sentinel {
				t.Fatalf("%s: sliced path wrote faulty entry %d", label, v)
			}
			continue
		}
		copy(recv, base)
		p.Apply(recv, v)
		if want := a.Step(v, recv, rngsScalar[v]); nextSliced[v] != want {
			t.Fatalf("%s: node %d stepped to %d, scalar Step says %d", label, v, nextSliced[v], want)
		}
		if got, want := rngsSliced[v].Int63(), rngsScalar[v].Int63(); got != want {
			t.Fatalf("%s: node %d rng stream diverged after stepping", label, v)
		}
	}
}

// batchPair runs StepAllSliced and StepAll on identical inputs. The
// simulator takes the sliced kernel when it provisions planes and the
// batch kernel otherwise, so a counter with both must step alike
// under either.
func batchPair(t *testing.T, label string, a interface {
	alg.BitSliceStepper
	alg.BatchStepper
}, rng *rand.Rand, n, nf int) {
	t.Helper()
	base, p, pl := buildRound(rng, n, nf, a.StateSpace(), a.SliceBits())
	rngsBatch, rngsSliced := seededRngs(rng, n)
	sentinel := ^alg.State(0)
	nextBatch := make([]alg.State, n)
	nextSliced := make([]alg.State, n)
	for v := range nextBatch {
		nextBatch[v] = sentinel
		nextSliced[v] = sentinel
	}
	a.StepAll(nextBatch, base, p, rngsBatch)
	a.StepAllSliced(nextSliced, pl, p, rngsSliced)
	for v := 0; v < n; v++ {
		if nextSliced[v] != nextBatch[v] {
			t.Fatalf("%s: node %d stepped to %d, batch path says %d", label, v, nextSliced[v], nextBatch[v])
		}
		if !p.Faulty[v] && rngsSliced[v].Int63() != rngsBatch[v].Int63() {
			t.Fatalf("%s: node %d rng stream diverged after stepping", label, v)
		}
	}
}

func TestRandomizedSlicedMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		f := 0
		if n > 3 {
			f = rng.Intn((n - 1) / 3)
		}
		// Exercise the full overload range: nf may exceed the design f.
		nf := rng.Intn(n)
		agree, err := NewRandomizedAgree(maxInt(n, 3*f+1), f)
		if err != nil {
			t.Fatal(err)
		}
		stepPair(t, fmt.Sprintf("randagree n=%d f=%d nf=%d trial=%d", n, f, nf, trial), agree, rng, agree.N(), nf)
	}
}

func TestMaxStepSlicedMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, c := range []int{2, 3, 4, 5, 10, 100, 255, 256} {
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(200)
			nf := rng.Intn(n) // MaxStep declares f=0; these are overload runs
			m, err := NewMaxStep(n, c)
			if err != nil {
				t.Fatal(err)
			}
			stepPair(t, fmt.Sprintf("maxstep n=%d c=%d nf=%d trial=%d", n, c, nf, trial), m, rng, n, nf)
		}
	}
}

func TestTrivialSlicedMatchesStep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []int{2, 3, 10, 256} {
		tr, err := NewTrivial(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, nf := range []int{0, 1} {
			stepPair(t, fmt.Sprintf("trivial c=%d nf=%d", c, nf), tr, rng, 1, nf)
		}
	}
}

func TestMaxStepSlicedMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range []int{2, 3, 4, 5, 10, 100, 255, 256} {
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(200)
			nf := rng.Intn(n)
			m, err := NewMaxStep(n, c)
			if err != nil {
				t.Fatal(err)
			}
			batchPair(t, fmt.Sprintf("maxstep n=%d c=%d nf=%d trial=%d", n, c, nf, trial), m, rng, n, nf)
		}
	}
}

func TestTrivialSlicedMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range []int{2, 3, 10, 256} {
		tr, err := NewTrivial(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, nf := range []int{0, 1} {
			batchPair(t, fmt.Sprintf("trivial c=%d nf=%d", c, nf), tr, rng, 1, nf)
		}
	}
}

func TestSliceBitsEligibility(t *testing.T) {
	wide, err := NewMaxStep(10, 1<<alg.MaxSliceBits+1)
	if err != nil {
		t.Fatal(err)
	}
	if got := wide.SliceBits(); got != 0 {
		t.Fatalf("MaxStep c=%d: SliceBits() = %d, want 0 (wider than MaxSliceBits planes)", 1<<alg.MaxSliceBits+1, got)
	}
	edge, err := NewMaxStep(10, 1<<alg.MaxSliceBits)
	if err != nil {
		t.Fatal(err)
	}
	if got := edge.SliceBits(); got != alg.MaxSliceBits {
		t.Fatalf("MaxStep c=%d: SliceBits() = %d, want %d", 1<<alg.MaxSliceBits, got, alg.MaxSliceBits)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
