package counter

import (
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Vectorized round-kernel support: the deterministic counters of this
// package step all correct nodes of a round in one call, folding the
// received vector into a shared per-round maximum computed once over
// the correct senders and adjusted per receiver by the ≤ f patched
// faulty slots. Each StepAll is observationally identical to per-node
// Step, which the kernel differential suite pins. The randomised
// counters step through their bit-sliced kernel (bitslice.go) instead.
var (
	_ alg.BatchStepper = (*Trivial)(nil)
	_ alg.BatchStepper = (*MaxStep)(nil)
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
