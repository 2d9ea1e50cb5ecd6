// Package alg defines the paper's algorithm formalism.
//
// A synchronous counting algorithm is a tuple A = (X, g, h): a state space
// X, a transition function g : [n] × X^n → X applied to the vector of
// states received in a round, and an output function h : [n] × X → [c].
// States are dense integers in [0, |X|) (see internal/codec), which lets
// the simulator hand the Byzantine adversary the full state space and lets
// us report the exact space complexity S(A) = ceil(log2 |X|).
package alg

import (
	"math"
	"math/rand"

	"github.com/synchcount/synchcount/internal/codec"
)

// State is a node state: a value in [0, StateSpace()). The adversary may
// inject any such value (and constructions must tolerate arbitrary words,
// reducing them into range).
type State = uint64

// Algorithm is a synchronous c-counter candidate running on n nodes.
//
// Implementations must be safe for concurrent use by multiple goroutines
// after construction (Step must not mutate receiver state); randomised
// algorithms draw all randomness from the rng passed to Step.
type Algorithm interface {
	// N returns the number of nodes the algorithm runs on.
	N() int
	// F returns the design resilience: the number of Byzantine nodes the
	// algorithm claims to tolerate.
	F() int
	// C returns the output counter modulus c.
	C() int
	// StateSpace returns |X|. Valid states are 0..|X|-1.
	StateSpace() uint64
	// Step computes g(node, recv): the next state of the given node from
	// the vector of states received this round (recv[u] is the state
	// broadcast by node u; recv has length N()). Deterministic algorithms
	// ignore rng, which may be nil for them.
	Step(node int, recv []State, rng *rand.Rand) State
	// Output computes h(node, s) in [0, C()).
	Output(node int, s State) int
}

// Deterministic is implemented by algorithms whose Step never consults the
// rng. The simulator and model checker use it to decide whether exact
// verification applies and to report the "deterministic" column of Table 1.
type Deterministic interface {
	Deterministic() bool
}

// IsDeterministic reports whether a declares itself deterministic.
func IsDeterministic(a Algorithm) bool {
	d, ok := a.(Deterministic)
	return ok && d.Deterministic()
}

// StateBits returns the paper's space complexity S(A) in bits.
func StateBits(a Algorithm) int {
	return codec.SpaceBits(a.StateSpace())
}

// Bound is implemented by algorithms that can predict an upper bound on
// their own stabilisation time (in rounds). Constructions derived from
// Theorem 1 always can; randomised baselines report expected time instead
// and do not implement Bound.
type Bound interface {
	StabilisationBound() uint64
}

// Tally counts how many times each value occurs in a slice of proposals.
// It is the shared primitive behind every majority vote in the paper. The
// zero value is ready to use.
type Tally struct {
	counts map[uint64]int
	total  int
}

// NewTally returns a tally pre-sized for n proposals.
func NewTally(n int) *Tally {
	return &Tally{counts: make(map[uint64]int, n)}
}

// Add records one proposal for value v.
func (t *Tally) Add(v uint64) {
	if t.counts == nil {
		t.counts = make(map[uint64]int)
	}
	t.counts[v]++
	t.total++
}

// Reset clears the tally for reuse.
func (t *Tally) Reset() {
	for k := range t.counts {
		delete(t.counts, k)
	}
	t.total = 0
}

// Count returns how many proposals were recorded for v.
func (t *Tally) Count(v uint64) int { return t.counts[v] }

// Majority returns the value proposed by strictly more than half of all n
// proposals, in the paper's sense: "majority(x) = a if a is contained in x
// more than kn/2 times, and * otherwise". The boolean result reports
// whether such an absolute majority exists; when it does not, callers
// default to 0, matching the paper's "defaulting to, e.g., 0" convention.
func (t *Tally) Majority() (uint64, bool) {
	for v, c := range t.counts {
		if 2*c > t.total {
			return v, true
		}
	}
	return 0, false
}

// MinValueWithCountAbove returns the smallest value whose count strictly
// exceeds threshold, and whether one exists. Phase king instruction
// I_{3l+1} uses it ("set a[v] <- min{j : z_j > F}").
func (t *Tally) MinValueWithCountAbove(threshold int) (uint64, bool) {
	best := uint64(0)
	found := false
	for v, c := range t.counts {
		if c <= threshold {
			continue
		}
		if !found || v < best {
			best = v
			found = true
		}
	}
	return best, found
}

// Plurality returns the most frequent value and its count, breaking
// ties toward the smallest value (∞ is the largest key, as in
// MinValueWithCountAbove). An empty tally returns (0, 0). The sampled
// pulling-model counters use it as their vote rule: unlike Majority it
// always elects a value, which is what lets k-sample gossip make
// progress from a symmetric start.
func (t *Tally) Plurality() (uint64, int) {
	best := 0
	for _, c := range t.counts {
		if c > best {
			best = c
		}
	}
	if best == 0 {
		return 0, 0
	}
	v, _ := t.MinValueWithCountAbove(best - 1)
	return v, best
}

// UniformState draws a uniform state from [0, space). For every space
// Int63n can represent it takes the historical rng.Int63n draw —
// preserving the seed streams (and hence every golden file) bit for
// bit — and above 2^63, where Int63n(int64(space)) would panic on the
// negative conversion, it rejection-samples the full 64-bit word: the
// acceptance region there is space itself (floor(2^64/space) = 1), so
// fewer than two draws are needed in expectation. Both the simulator's
// initial-state draws and the adversaries' forged-state draws go
// through this single definition so the two stream families cannot
// skew apart.
func UniformState(rng *rand.Rand, space uint64) State {
	if space <= 1 {
		return 0
	}
	if space <= math.MaxInt64 {
		return State(rng.Int63n(int64(space)))
	}
	for {
		if r := rng.Uint64(); r < space {
			return State(r)
		}
	}
}

// Majority returns the absolute majority of values — the value held by
// more than half of them, as Tally.Majority decides it — defaulting to
// 0 (the paper's convention) when there is none. It allocates nothing:
// a Boyer–Moore pass finds the only possible candidate and a second
// pass counts it.
func Majority(values []uint64) uint64 {
	var cand uint64
	votes := 0
	for _, v := range values {
		switch {
		case votes == 0:
			cand, votes = v, 1
		case v == cand:
			votes++
		default:
			votes--
		}
	}
	count := 0
	for _, v := range values {
		if v == cand {
			count++
		}
	}
	if 2*count > len(values) {
		return cand
	}
	return 0
}
