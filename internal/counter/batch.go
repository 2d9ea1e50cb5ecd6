package counter

import (
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Vectorized round-kernel support: every counter in this package steps
// all correct nodes of a round in one call, folding the received
// vector into shared per-round statistics (max, bit counts) computed
// once over the correct senders and adjusted per receiver by the ≤ f
// patched faulty slots. Each StepAll is observationally identical to
// per-node Step — including the order and number of rng draws — which
// the kernel differential suite pins.
var (
	_ alg.BatchStepper = (*Trivial)(nil)
	_ alg.BatchStepper = (*MaxStep)(nil)
	_ alg.BatchStepper = (*RandomizedAgree)(nil)
	_ alg.BatchStepper = (*RandomizedBiased)(nil)
)

// StepAll implements alg.BatchStepper.
func (t *Trivial) StepAll(next, base []alg.State, p *alg.Patches, _ []*rand.Rand) {
	if !p.Faulty[0] {
		next[0] = (base[0]%t.c + 1) % t.c
	}
}

// StepAll implements alg.BatchStepper: the shared maximum over correct
// states is computed once; each receiver class only folds in its own
// view of the faulty senders.
func (m *MaxStep) StepAll(next, base []alg.State, p *alg.Patches, _ []*rand.Rand) {
	var shared uint64
	for u, s := range base {
		if !p.Faulty[u] {
			shared = m.fold(shared, s)
		}
	}
	for v := range base {
		if p.Faulty[v] || !p.ClassHead(v) {
			continue
		}
		mx := shared
		for _, s := range p.Values[v] {
			mx = m.fold(mx, s)
		}
		s := m.next(mx)
		for w := v; w >= 0; w = p.NextInClass(w) {
			next[w] = s
		}
	}
}

// StepAll implements alg.BatchStepper: the zero/one counts over
// correct states are shared across receivers; the per-receiver faulty
// bits adjust them in O(f). The branch taken — and hence the rng draw
// sequence of each node — matches Step exactly.
func (r *RandomizedAgree) StepAll(next, base []alg.State, p *alg.Patches, rngs []*rand.Rand) {
	zeros, ones := correctBitCounts(base, p.Faulty)
	for v := range base {
		if p.Faulty[v] {
			continue
		}
		z, o := patchedBitCounts(zeros, ones, p.Values[v])
		switch {
		case z >= r.n-r.f:
			next[v] = 1
		case o >= r.n-r.f:
			next[v] = 0
		default:
			next[v] = uint64(rngs[v].Intn(2))
		}
	}
}

// StepAll implements alg.BatchStepper (see RandomizedAgree.StepAll).
func (r *RandomizedBiased) StepAll(next, base []alg.State, p *alg.Patches, rngs []*rand.Rand) {
	zeros, ones := correctBitCounts(base, p.Faulty)
	for v := range base {
		if p.Faulty[v] {
			continue
		}
		z, o := patchedBitCounts(zeros, ones, p.Values[v])
		rng := rngs[v]
		switch {
		case z >= r.n-r.f:
			next[v] = 1
		case o >= r.n-r.f:
			next[v] = 0
		case z >= r.n-2*r.f && o < r.n-2*r.f:
			if rng.Intn(4) < 3 {
				next[v] = 1
			} else {
				next[v] = uint64(rng.Intn(2))
			}
		case o >= r.n-2*r.f && z < r.n-2*r.f:
			if rng.Intn(4) < 3 {
				next[v] = 0
			} else {
				next[v] = uint64(rng.Intn(2))
			}
		default:
			next[v] = uint64(rng.Intn(2))
		}
	}
}

func correctBitCounts(base []alg.State, faulty []bool) (zeros, ones int) {
	for u, s := range base {
		if faulty[u] {
			continue
		}
		if s%2 == 0 {
			zeros++
		} else {
			ones++
		}
	}
	return zeros, ones
}

func patchedBitCounts(zeros, ones int, patch []alg.State) (int, int) {
	for _, s := range patch {
		if s%2 == 0 {
			zeros++
		} else {
			ones++
		}
	}
	return zeros, ones
}
