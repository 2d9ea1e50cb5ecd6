package sim

import (
	"fmt"
	"math/rand"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
)

// The pulling model of Section 5: in every round each processor
// contacts a subset of nodes by pulling their state; contacted nodes
// respond with their state as of the beginning of the round; faulty
// nodes may respond with arbitrary, per-puller-different states. The
// message/bit complexity of an algorithm is the maximum number of
// messages/bits pulled by a non-faulty node in a round — the "energy
// budget" of the circuit motivation. Pulls within a round may be issued
// adaptively (the model fixes only that all responses reflect
// start-of-round states); the sampled counter of internal/pull uses
// this for the single king pull whose identity depends on the voted
// round counter R.

// Puller is the per-round communication capability handed to a node: it
// returns the start-of-round state of the target (or adversarial
// garbage when the target is faulty). Every call is one pull and is
// charged to the calling node.
type Puller func(target int) alg.State

// PullAlgorithm is a counting algorithm in the pulling model. Its
// methods N, C, StateSpace and Output (from the embedded interface the
// run skeleton reads) mirror alg.Algorithm's: the node count, the
// counter modulus, |X| and the state-to-counter map. Step replaces the
// broadcast transition.
type PullAlgorithm interface {
	counting
	// Step runs one round for the node: it may pull any targets (cost:
	// one message per call) and must return the next state.
	// Deterministic algorithms (alg.Deterministic) ignore rng, which may
	// be nil for them.
	Step(node int, own alg.State, pull Puller, rng *rand.Rand) alg.State
}

// PullConfig describes one pulling-model run.
type PullConfig struct {
	// Alg is the pulling-model algorithm under test.
	Alg PullAlgorithm
	// Faulty lists Byzantine node indices.
	Faulty []int
	// Adv supplies faulty responses; adversary.View carries the
	// omniscient snapshot exactly as in the broadcast model.
	// Defaults to adversary.Equivocate.
	Adv adversary.Adversary
	// Seed drives all randomness.
	Seed int64
	// MaxRounds bounds the run. Required.
	MaxRounds uint64
	// Window is the confirmation window (default DefaultWindowFor).
	Window uint64
	// Init optionally fixes initial states.
	Init []alg.State
	// StopEarly stops once stabilisation is confirmed.
	StopEarly bool
	// OnRound observes (round, states, outputs) like Config.OnRound.
	OnRound func(round uint64, states []alg.State, outputs []int)
	// Abort, when non-nil, is polled once per round; the run stops with
	// errAborted as soon as it returns true (see Config.Abort).
	Abort func() bool
}

// PullResult reports a pulling-model run.
type PullResult struct {
	// Stabilised, StabilisationTime, RoundsRun and Violations are as in
	// Result.
	Stabilised        bool
	StabilisationTime uint64
	RoundsRun         uint64
	Violations        uint64
	// MaxPulls is the maximum number of pulls any correct node issued in
	// any round — the paper's per-node message complexity.
	MaxPulls uint64
	// MeanPulls is the average pulls per correct node per round.
	MeanPulls float64
	// MaxBits is MaxPulls times the per-state bit size.
	MaxBits uint64
}

// RunPullFull executes a pulling-model run for exactly MaxRounds (for
// violation counting).
func RunPullFull(cfg PullConfig) (PullResult, error) {
	cfg.StopEarly = false
	return runPull(cfg, false)
}

// pullBatchStepper is the sparse batch fast path of the pulling model:
// the per-round analogue of alg.BatchStepper for pull algorithms. A run
// takes StepAll when the algorithm implements it; the closure reference
// loop is retained and the differential suite
// (pull_differential_test.go) holds the two paths bit-identical.
//
// StepAll must be observationally identical to calling Step for every
// correct node in ascending order with the per-node pull closure:
//
//   - correct nodes are processed in ascending index order, and each
//     node's pulls are issued (via PullEnv.Pull) in exactly the order
//     the reference Step issues them — the shared adversary stream
//     (adversary.View.Rng, consumed by e.g. Equivocate) makes faulty
//     responses order-sensitive across the whole round;
//   - node randomness is drawn from PullEnv.Rng(v) in exactly the
//     per-node order Step draws it (streams are per-node, so only
//     within-node order matters);
//   - PullEnv.Set must be called for every correct node. Faulty nodes
//     are handled by the round.
//
// Unlike the closure loop, StepAll receives no dense receive vector and
// is expected to run in O(n·pulls) time and O(n) memory — no per-node
// allocation, no O(n²) scratch.
type pullBatchStepper interface {
	PullAlgorithm
	// PullsPerRound returns the constant number of pulls a correct node
	// issues per round; the batch round uses it to account
	// MaxPulls/MeanPulls without the counting closure. It must equal the
	// number of Pull calls the reference Step makes (which is the number
	// of pulls the reference loop would have counted).
	PullsPerRound() uint64
	// StepAll runs one round for every correct node.
	StepAll(env *PullEnv)
}

// PullEnv is the round context handed to a batch pull algorithm's
// StepAll: the start-of-round states, the fault mask, the adversary and
// the node random streams, behind an interface that charges no dense
// structures.
type PullEnv struct {
	view   *adversary.View
	adv    adversary.Adversary
	states []alg.State
	next   []alg.State
	faulty []bool
	sc     *runScratch
}

// Faulty reports whether node v is Byzantine.
func (e *PullEnv) Faulty(v int) bool { return e.faulty[v] }

// States returns the start-of-round state vector. It is shared,
// read-only context: steppers must not mutate it. Correct nodes'
// responses can be read from it directly (a pull from a correct target
// is exactly States()[target]); pulls from faulty targets must go
// through Pull so the adversary sees them in reference order.
func (e *PullEnv) States() []alg.State { return e.states }

// Pull issues one pull by receiver from target: out-of-range targets
// return 0, faulty targets are answered by the adversary (reduced into
// the state space), correct targets respond with their start-of-round
// state.
func (e *PullEnv) Pull(target, receiver int) alg.State {
	if target < 0 || target >= len(e.states) {
		return 0
	}
	if e.faulty[target] {
		return e.adv.Message(e.view, target, receiver) % e.view.Space
	}
	return e.states[target]
}

// Rng returns node v's random stream (nil for runs of deterministic
// algorithms, which must not consult it).
func (e *PullEnv) Rng(v int) *rand.Rand { return e.sc.rng(v) }

// Set records node v's next state.
func (e *PullEnv) Set(v int, s alg.State) { e.next[v] = s }

// pullRun is one pulling-model run's round context and message
// accounting.
type pullRun struct {
	a       PullAlgorithm
	batch   pullBatchStepper
	env     PullEnv
	correct uint64

	totalPulls, nodeRounds, maxPulls uint64
}

// runPull runs the pulling model on the run skeleton, honouring
// cfg.StopEarly. It takes the sparse batch round when the algorithm
// provides one and reference is unset, and the per-node closure
// reference loop otherwise.
func runPull(cfg PullConfig, reference bool) (PullResult, error) {
	p := &pullRun{a: cfg.Alg}
	v, err := runRounds(&runSpec{
		alg: cfg.Alg, faulty: cfg.Faulty, adv: cfg.Adv, seed: cfg.Seed,
		maxRounds: cfg.MaxRounds, window: cfg.Window, init: cfg.Init,
		stopEarly: cfg.StopEarly, onRound: cfg.OnRound, abort: cfg.Abort,
	}, func(sc *runScratch, view *adversary.View, adv adversary.Adversary) (roundFunc, *ffEngine) {
		p.env = PullEnv{view: view, adv: adv, states: sc.states, next: sc.next, faulty: sc.faulty, sc: sc}
		p.correct = uint64(len(sc.states) - len(cfg.Faulty))
		if bs, ok := cfg.Alg.(pullBatchStepper); ok && !reference {
			p.batch = bs
			return p.batchRound, nil
		}
		return p.closureRound, nil
	})
	if err != nil {
		return PullResult{}, err
	}
	res := PullResult{
		Stabilised:        v.Stabilised,
		StabilisationTime: v.StabilisationTime,
		RoundsRun:         v.RoundsRun,
		Violations:        v.Violations,
		MaxPulls:          p.maxPulls,
		MaxBits:           p.maxPulls * uint64(codec.SpaceBits(cfg.Alg.StateSpace())),
	}
	if p.nodeRounds > 0 {
		res.MeanPulls = float64(p.totalPulls) / float64(p.nodeRounds)
	}
	return res, nil
}

// batchRound is the sparse batch round: one StepAll call for all
// correct nodes, charged PullsPerRound pulls each — the same count the
// closure reference tallies.
func (p *pullRun) batchRound(_ adversary.Adversary, view *adversary.View, sc *runScratch) error {
	for v, f := range sc.faulty {
		if f {
			sc.next[v] = sc.states[v]
		}
	}
	p.batch.StepAll(&p.env)
	for v, f := range sc.faulty {
		if !f && sc.next[v] >= view.Space {
			return fmt.Errorf("sim: node %d stepped outside state space (%d >= %d)", v, sc.next[v], view.Space)
		}
	}
	ppr := p.batch.PullsPerRound()
	p.totalPulls += ppr * p.correct
	p.nodeRounds += p.correct
	if p.correct > 0 && ppr > p.maxPulls {
		p.maxPulls = ppr
	}
	return nil
}

// closureRound is the reference round: every correct node steps with
// its own counting pull closure.
func (p *pullRun) closureRound(_ adversary.Adversary, view *adversary.View, sc *runScratch) error {
	states, next := sc.states, sc.next
	for v, f := range sc.faulty {
		if f {
			next[v] = states[v]
			continue
		}
		var pulls uint64
		puller := func(target int) alg.State {
			pulls++
			return p.env.Pull(target, v)
		}
		next[v] = p.a.Step(v, states[v], puller, sc.rng(v))
		if next[v] >= view.Space {
			return fmt.Errorf("sim: node %d stepped outside state space (%d >= %d)", v, next[v], view.Space)
		}
		p.totalPulls += pulls
		p.nodeRounds++
		if pulls > p.maxPulls {
			p.maxPulls = pulls
		}
	}
	return nil
}
