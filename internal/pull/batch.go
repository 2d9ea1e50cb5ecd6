package pull

import (
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
)

// batchStepper is the sparse batch fast path of the pulling model: the
// per-round analogue of alg.BatchStepper for pull algorithms. Run and
// RunFull dispatch to StepAll when the algorithm implements it; the
// scalar reference loop is retained and the differential suite
// (kernel_differential_test.go) holds the two paths bit-identical.
//
// StepAll must be observationally identical to calling Step for every
// correct node in ascending order with the per-node pull closure:
//
//   - correct nodes are processed in ascending index order, and each
//     node's pulls are issued (via BatchEnv.Pull) in exactly the order
//     the reference Step issues them — the shared adversary stream
//     (adversary.View.Rng, consumed by e.g. Equivocate) makes faulty
//     responses order-sensitive across the whole round;
//   - node randomness is drawn from BatchEnv.Rng(v) in exactly the
//     per-node order Step draws it (streams are per-node, so only
//     within-node order matters);
//   - BatchEnv.Set must be called for every correct node. Faulty nodes
//     are handled by the kernel.
//
// Unlike the closure loop, StepAll receives no dense receive vector and
// is expected to run in O(n·pulls) time and O(n) memory — no per-node
// allocation, no O(n²) scratch.
type batchStepper interface {
	Algorithm
	// PullsPerRound returns the constant number of pulls a correct node
	// issues per round; the kernel uses it to account MaxPulls/MeanPulls
	// without the counting closure. It must equal the number of Pull
	// calls the reference Step makes (which is the number of pulls the
	// reference loop would have counted).
	PullsPerRound() uint64
	// StepAll runs one round for every correct node.
	StepAll(env *BatchEnv)
}

// BatchEnv is the round context handed to batchStepper.StepAll: the
// start-of-round states, the fault mask, the adversary and the node
// random streams, behind an interface that charges no dense structures.
type BatchEnv struct {
	view   *adversary.View
	adv    adversary.Adversary
	states []alg.State
	next   []alg.State
	faulty []bool
	space  uint64
	sc     *runScratch
}

func (e *BatchEnv) reset(view *adversary.View, adv adversary.Adversary, states, next []alg.State, faulty []bool, space uint64, sc *runScratch) {
	e.view = view
	e.adv = adv
	e.states = states
	e.next = next
	e.faulty = faulty
	e.space = space
	e.sc = sc
}

// Faulty reports whether node v is Byzantine.
func (e *BatchEnv) Faulty(v int) bool { return e.faulty[v] }

// States returns the start-of-round state vector. It is shared,
// read-only context: steppers must not mutate it. Correct nodes'
// responses can be read from it directly (a pull from a correct target
// is exactly States()[target]); pulls from faulty targets must go
// through Pull so the adversary sees them in reference order.
func (e *BatchEnv) States() []alg.State { return e.states }

// Pull issues one pull by receiver from target, exactly as the
// reference loop's closure does: out-of-range targets return 0, faulty
// targets are answered by the adversary (reduced into the state space),
// correct targets respond with their start-of-round state.
func (e *BatchEnv) Pull(target, receiver int) alg.State {
	if target < 0 || target >= len(e.states) {
		return 0
	}
	if e.faulty[target] {
		return e.adv.Message(e.view, target, receiver) % e.space
	}
	return e.states[target]
}

// Rng returns node v's random stream (nil for runs of deterministic
// algorithms, which must not consult it).
func (e *BatchEnv) Rng(v int) *rand.Rand { return e.sc.rng(v) }

// Set records node v's next state.
func (e *BatchEnv) Set(v int, s alg.State) { e.next[v] = s }

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

var _ batchStepper = Broadcast{}

// PullsPerRound implements batchStepper: the embedding pulls all n−1
// peers.
func (b Broadcast) PullsPerRound() uint64 { return uint64(b.A.N() - 1) }

// StepAll implements batchStepper.
func (b Broadcast) StepAll(env *BatchEnv) {
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
