package pull

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/sim"
)

// Gossip is the million-node workload of the sparse pull kernel: a
// fixed-wiring k-sample plurality c-counter in the pulling model. Each
// round every node pulls its k fixed sampled neighbours (the sampler
// wiring — the Corollary 5 pattern of drawing wires once and reusing
// them forever), takes the plurality of the sampled counter values with
// smallest-value tie-breaking, and outputs plurality+1 mod c.
//
// The recursive constructions of Theorems 1 and 4 cannot reach n = 10^6
// — their state spaces overflow 64 bits past a few hundred nodes — so
// the scale cells run this direct dynamic instead. It is the natural
// sampled-model baseline: O(k) pulls and O(log c) state per node, it
// self-stabilises with high probability under random wiring (plurality
// dynamics on a random k-out digraph contract to consensus, and the
// deterministic tie-break breaks the symmetric start), and once the
// correct nodes agree they count in lockstep forever — any later
// violation needs a node whose k fixed samples are majority-faulty.
// Unlike the construction counters it offers no worst-case resilience
// bound.
type Gossip struct {
	n, k  int
	c     uint64
	wires sampler
	pool  sync.Pool // *alg.DenseTally, shared across concurrent trials
}

var (
	_ sim.PullAlgorithm = (*Gossip)(nil)
	_ alg.Deterministic = (*Gossip)(nil)
)

// NewGossip builds the k-sample plurality counter on n nodes with
// modulus c; wireSeed fixes the sampling wiring. The dynamic has no
// proven resilience bound, so it takes no fault budget.
func NewGossip(n, c, k int, wireSeed int64) (*Gossip, error) {
	if n < 2 {
		return nil, fmt.Errorf("pull: gossip needs n >= 2, got %d", n)
	}
	if c < 2 {
		return nil, fmt.Errorf("pull: gossip needs modulus c >= 2, got %d", c)
	}
	if k < 1 {
		return nil, fmt.Errorf("pull: gossip needs k >= 1 samples, got %d", k)
	}
	wires, err := newSampler(wireSeed, n)
	if err != nil {
		return nil, err
	}
	return &Gossip{n: n, k: k, c: uint64(c), wires: wires}, nil
}

// N implements sim.PullAlgorithm.
func (g *Gossip) N() int { return g.n }

// C implements sim.PullAlgorithm.
func (g *Gossip) C() int { return int(g.c) }

// StateSpace implements sim.PullAlgorithm: the state is the counter value.
func (g *Gossip) StateSpace() uint64 { return g.c }

// Output implements sim.PullAlgorithm.
func (g *Gossip) Output(_ int, s alg.State) int { return int(s % g.c) }

// Deterministic implements alg.Deterministic: all randomness lives in
// the construction-time wiring.
func (g *Gossip) Deterministic() bool { return true }

// PullsPerRound implements the sparse batch path.
func (g *Gossip) PullsPerRound() uint64 { return uint64(g.k) }

// Step implements sim.PullAlgorithm: the scalar reference transition.
func (g *Gossip) Step(v int, _ alg.State, pull sim.Puller, _ *rand.Rand) alg.State {
	t := alg.NewTally(g.k)
	for i := 0; i < g.k; i++ {
		t.Add(pull(g.wires.Target(v, i)))
	}
	best, _ := t.Plurality()
	return (best + 1) % g.c
}

// StepAll implements the sparse batch path: the same transition over flat
// arrays, with one pooled dense tally reused across all nodes —
// allocation-free after warm-up, O(n·k) per round.
func (g *Gossip) StepAll(env *sim.PullEnv) {
	t, _ := g.pool.Get().(*alg.DenseTally)
	if t == nil {
		t = alg.NewDenseTally(g.c)
	} else {
		t.Resize(g.c)
	}
	defer g.pool.Put(t)
	states := env.States()
	for v := 0; v < g.n; v++ {
		if env.Faulty(v) {
			continue
		}
		t.Reset()
		for i := 0; i < g.k; i++ {
			u := g.wires.Target(v, i)
			if env.Faulty(u) {
				t.Add(env.Pull(u, v))
			} else {
				t.Add(states[u])
			}
		}
		best, _ := t.Plurality()
		env.Set(v, (best+1)%g.c)
	}
}
