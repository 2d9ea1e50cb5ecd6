// Package counter provides the base-case synchronous counters from which
// the paper's recursive construction starts, plus the randomised baseline
// algorithm of Table 1.
//
// Base cases:
//   - Trivial: the 0-resilient 1-node counter ("trivial counters for n = 1
//     and f = 0", Section 4.1), the starting point of Corollary 1.
//   - MaxStep: a 0-resilient n-node counter stabilising in one round, used
//     as a fast fault-free substrate and as a model-checker fixture.
//
// Randomised baseline (2-counting):
//   - RandomizedAgree: the folklore algorithm of Table 1 rows [6,7] — flip
//     coins until a clear majority emerges, then follow it. One state bit,
//     expected stabilisation time 2^Θ(n-f).
//
// These three counters are the only implementations of
// alg.BitSliceStepper (bitslice.go): the simulator's bit-sliced path
// serves trivial, maxstep and randagree and nothing else.
package counter

import (
	"fmt"
	"math/rand"
	"sync"
)

// Trivial is the 0-resilient synchronous c-counter on a single node: its
// state is the counter value, incremented every round. It is trivially
// self-stabilising and serves as the base of Corollary 1.
type Trivial struct {
	c uint64
}

// NewTrivial returns the trivial 1-node c-counter. c must be at least 2.
func NewTrivial(c int) (*Trivial, error) {
	if c < 2 {
		return nil, fmt.Errorf("counter: trivial counter needs c >= 2, got %d", c)
	}
	return &Trivial{c: uint64(c)}, nil
}

// N implements alg.Algorithm.
func (t *Trivial) N() int { return 1 }

// F implements alg.Algorithm.
func (t *Trivial) F() int { return 0 }

// C implements alg.Algorithm.
func (t *Trivial) C() int { return int(t.c) }

// StateSpace implements alg.Algorithm.
func (t *Trivial) StateSpace() uint64 { return t.c }

// Step implements alg.Algorithm: increment modulo c.
func (t *Trivial) Step(node int, recv []uint64, _ *rand.Rand) uint64 {
	return (recv[node]%t.c + 1) % t.c
}

// Output implements alg.Algorithm.
func (t *Trivial) Output(_ int, s uint64) int { return int(s % t.c) }

// Deterministic implements alg.Deterministic.
func (t *Trivial) Deterministic() bool { return true }

// StabilisationBound implements alg.Bound: the trivial counter is always
// stabilised.
func (t *Trivial) StabilisationBound() uint64 { return 0 }

// MaxStep is a 0-resilient n-node c-counter: every node adopts
// (max received state) + 1 mod c. With no faults all nodes observe the
// same vector, so they agree after a single round and count in lockstep
// thereafter. It is *not* Byzantine tolerant (F() = 0) and exists as a
// substrate for fault-free blocks and as a small model-checking target.
type MaxStep struct {
	n int
	c uint64

	// slicePool recycles the bit-sliced stepping scratch (see
	// bitslice.go); a per-instance sync.Pool keeps concurrent campaign
	// trials sharing one algorithm race-free without a global.
	slicePool sync.Pool
}

// NewMaxStep returns the n-node 0-resilient c-counter.
func NewMaxStep(n, c int) (*MaxStep, error) {
	if n < 1 {
		return nil, fmt.Errorf("counter: MaxStep needs n >= 1, got %d", n)
	}
	if c < 2 {
		return nil, fmt.Errorf("counter: MaxStep needs c >= 2, got %d", c)
	}
	return &MaxStep{n: n, c: uint64(c)}, nil
}

// N implements alg.Algorithm.
func (m *MaxStep) N() int { return m.n }

// F implements alg.Algorithm.
func (m *MaxStep) F() int { return 0 }

// C implements alg.Algorithm.
func (m *MaxStep) C() int { return int(m.c) }

// StateSpace implements alg.Algorithm.
func (m *MaxStep) StateSpace() uint64 { return m.c }

// Step implements alg.Algorithm. Out-of-space words are reduced mod c
// as they are read; in-space words, all an honest network delivers,
// cost no division.
func (m *MaxStep) Step(_ int, recv []uint64, _ *rand.Rand) uint64 {
	var max uint64
	for _, s := range recv {
		max = m.fold(max, s)
	}
	return m.next(max)
}

// fold returns the larger of mx and s mod c, dividing only when s is
// out of space.
func (m *MaxStep) fold(mx, s uint64) uint64 {
	if s >= m.c {
		s %= m.c
	}
	if s > mx {
		return s
	}
	return mx
}

// next is (mx + 1) mod c for mx < c.
func (m *MaxStep) next(mx uint64) uint64 {
	if mx+1 == m.c {
		return 0
	}
	return mx + 1
}

// Output implements alg.Algorithm.
func (m *MaxStep) Output(_ int, s uint64) int { return int(s % m.c) }

// Deterministic implements alg.Deterministic.
func (m *MaxStep) Deterministic() bool { return true }

// StabilisationBound implements alg.Bound.
func (m *MaxStep) StabilisationBound() uint64 { return 1 }

// RandomizedAgree is the folklore randomised 2-counter of Table 1 rows
// [6,7]: each node holds one bit; if at least n-f received states carry
// the same value x the node adopts x+1 mod 2, otherwise it flips a fair
// coin. Expected stabilisation time is exponential in n-f; resilience is
// f < n/3.
type RandomizedAgree struct {
	n, f int
}

// NewRandomizedAgree returns the baseline for n nodes tolerating f < n/3
// faults.
func NewRandomizedAgree(n, f int) (*RandomizedAgree, error) {
	if err := checkResilience(n, f); err != nil {
		return nil, err
	}
	return &RandomizedAgree{n: n, f: f}, nil
}

// N implements alg.Algorithm.
func (r *RandomizedAgree) N() int { return r.n }

// F implements alg.Algorithm.
func (r *RandomizedAgree) F() int { return r.f }

// C implements alg.Algorithm.
func (r *RandomizedAgree) C() int { return 2 }

// StateSpace implements alg.Algorithm.
func (r *RandomizedAgree) StateSpace() uint64 { return 2 }

// Step implements alg.Algorithm.
func (r *RandomizedAgree) Step(_ int, recv []uint64, rng *rand.Rand) uint64 {
	zeros, ones := bitCounts(recv)
	switch {
	case zeros >= r.n-r.f:
		return 1
	case ones >= r.n-r.f:
		return 0
	default:
		return uint64(rng.Intn(2))
	}
}

// Output implements alg.Algorithm.
func (r *RandomizedAgree) Output(_ int, s uint64) int { return int(s % 2) }

// Deterministic implements alg.Deterministic.
func (r *RandomizedAgree) Deterministic() bool { return false }

func bitCounts(recv []uint64) (zeros, ones int) {
	for _, s := range recv {
		if s%2 == 0 {
			zeros++
		} else {
			ones++
		}
	}
	return zeros, ones
}

func checkResilience(n, f int) error {
	if f < 0 {
		return fmt.Errorf("counter: negative resilience f = %d", f)
	}
	if 3*f >= n {
		return fmt.Errorf("counter: resilience requires f < n/3, got n = %d, f = %d", n, f)
	}
	return nil
}
