// Package pull holds the algorithms of the synchronous pulling model of
// Section 5: the randomised, communication-efficient counters of
// Theorem 4 and Corollaries 4–5 (SampledCounter), the trivial embedding
// of a broadcast-model algorithm (Broadcast) and the fixed-wiring
// gossip counter of the million-node cells (Gossip). The model itself —
// pulls, message accounting and the run loop — is internal/sim's
// pulling model (sim.PullConfig, sim.RunPullFull); each algorithm here
// implements sim.PullAlgorithm and its sparse batch path.
package pull

import (
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/sim"
)

// Broadcast adapts a broadcast-model algorithm to the pulling model by
// pulling every peer each round — the trivial (expensive) embedding the
// randomised constructions are measured against.
type Broadcast struct {
	// A is the underlying broadcast-model algorithm.
	A alg.Algorithm
}

var _ sim.PullAlgorithm = Broadcast{}

// N implements sim.PullAlgorithm.
func (b Broadcast) N() int { return b.A.N() }

// C implements sim.PullAlgorithm.
func (b Broadcast) C() int { return b.A.C() }

// StateSpace implements sim.PullAlgorithm.
func (b Broadcast) StateSpace() uint64 { return b.A.StateSpace() }

// Output implements sim.PullAlgorithm.
func (b Broadcast) Output(node int, s alg.State) int { return b.A.Output(node, s) }

// Step implements sim.PullAlgorithm: it pulls all n-1 peers and
// delegates to the broadcast transition.
func (b Broadcast) Step(node int, own alg.State, pull sim.Puller, rng *rand.Rand) alg.State {
	n := b.A.N()
	recv := make([]alg.State, n)
	for u := 0; u < n; u++ {
		if u == node {
			recv[u] = own
			continue
		}
		recv[u] = pull(u)
	}
	return b.A.Step(node, recv, rng)
}

// Broadcast batch path: the trivial embedding pulls every peer, so its
// sparse form is the broadcast kernel's shared-base-plus-patches idea
// collapsed to a single reused receive vector — the base copy is made
// once per round and only the ≤ f faulty slots are rewritten per
// receiver, in the ascending order the reference Step pulls them.
var broadcastScratch sync.Pool

type broadcastEnvScratch struct {
	recv      []alg.State
	faultyIdx []int
}

// PullsPerRound implements the sparse batch path: the embedding pulls
// all n−1 peers.
func (b Broadcast) PullsPerRound() uint64 { return uint64(b.A.N() - 1) }

// StepAll implements the sparse batch path.
func (b Broadcast) StepAll(env *sim.PullEnv) {
	n := b.A.N()
	sc, _ := broadcastScratch.Get().(*broadcastEnvScratch)
	if sc == nil {
		sc = &broadcastEnvScratch{}
	}
	defer broadcastScratch.Put(sc)
	if cap(sc.recv) < n {
		sc.recv = make([]alg.State, n)
	}
	sc.recv = sc.recv[:n]
	sc.faultyIdx = sc.faultyIdx[:0]
	states := env.States()
	copy(sc.recv, states)
	for u := 0; u < n; u++ {
		if env.Faulty(u) {
			sc.faultyIdx = append(sc.faultyIdx, u)
		}
	}
	det := alg.IsDeterministic(b.A)
	for v := 0; v < n; v++ {
		if env.Faulty(v) {
			continue
		}
		// The reference Step pulls peers in ascending order; correct
		// responses are already in the shared copy, so only the faulty
		// slots draw from the adversary — same draws, same order.
		for _, u := range sc.faultyIdx {
			sc.recv[u] = env.Pull(u, v)
		}
		var rng *rand.Rand
		if !det {
			rng = env.Rng(v)
		}
		env.Set(v, b.A.Step(v, sc.recv, rng))
	}
}

// Deterministic reports whether the embedded broadcast algorithm is
// deterministic (the embedding adds no randomness).
func (b Broadcast) Deterministic() bool { return alg.IsDeterministic(b.A) }
