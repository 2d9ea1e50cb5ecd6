// Package pull implements the synchronous pulling model of Section 5 and
// the randomised, communication-efficient counters of Theorem 4 and
// Corollaries 4–5.
//
// Model: in every round each processor contacts a subset of nodes by
// pulling their state; contacted nodes respond with their state as of
// the beginning of the round; faulty nodes may respond with arbitrary,
// per-puller-different states. The message/bit complexity of an
// algorithm is the maximum number of messages/bits pulled by a
// non-faulty node in a round — the "energy budget" of the circuit
// motivation. Pulls within a round may be issued adaptively (the model
// fixes only that all responses reflect start-of-round states); the
// sampled counter uses this for the single king pull whose identity
// depends on the voted round counter R.
package pull

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/sim"
)

// Puller is the per-round communication capability handed to a node: it
// returns the start-of-round state of the target (or adversarial
// garbage when the target is faulty). Every call is one pull and is
// charged to the calling node.
type Puller func(target int) alg.State

// Algorithm is a counting algorithm in the pulling model.
type Algorithm interface {
	// N, C and StateSpace mirror alg.Algorithm.
	N() int
	C() int
	StateSpace() uint64
	// Step runs one round for the node: it may pull any targets (cost:
	// one message per call) and must return the next state.
	// Deterministic algorithms (alg.Deterministic) ignore rng, which may
	// be nil for them.
	Step(node int, own alg.State, pull Puller, rng *rand.Rand) alg.State
	// Output maps a state to the counter value.
	Output(node int, s alg.State) int
}

// Config describes one pulling-model run.
type Config struct {
	// Alg is the pulling-model algorithm under test.
	Alg Algorithm
	// Faulty lists Byzantine node indices.
	Faulty []int
	// Adv supplies faulty responses; adversary.View carries the
	// omniscient snapshot exactly as in the broadcast simulator.
	// Defaults to adversary.Equivocate.
	Adv adversary.Adversary
	// Seed drives all randomness.
	Seed int64
	// MaxRounds bounds the run. Required.
	MaxRounds uint64
	// Window is the confirmation window (default sim.DefaultWindowFor).
	Window uint64
	// Init optionally fixes initial states.
	Init []alg.State
	// StopEarly stops once stabilisation is confirmed.
	StopEarly bool
	// OnRound observes (round, states, outputs) like sim.Config.OnRound.
	OnRound func(round uint64, states []alg.State, outputs []int)
	// Abort, when non-nil, is polled once per round; the run stops with
	// errAborted as soon as it returns true (see sim.Config.Abort).
	Abort func() bool
}

// errAborted is returned by RunFull and campaign trials when
// Config.Abort requested an early stop.
var errAborted = errors.New("pull: run aborted")

// Result reports a pulling-model run.
type Result struct {
	// Stabilised, StabilisationTime, RoundsRun and Violations are as in
	// sim.Result.
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

// RunFull executes for exactly MaxRounds (for violation counting).
func RunFull(cfg Config) (Result, error) {
	cfg.StopEarly = false
	return run(cfg)
}

// run executes the configured pulling-model simulation, stopping early
// when cfg.StopEarly is set. It dispatches to the sparse batch kernel
// when the algorithm provides one, and to the retained scalar
// reference loop otherwise. The differential suite holds the two paths
// bit-identical.
func run(cfg Config) (Result, error) {
	if bs, ok := cfg.Alg.(batchStepper); ok {
		return runMode(cfg, bs)
	}
	return runMode(cfg, nil)
}

// deterministic reports whether a pull algorithm declares itself
// deterministic (never consults the node rng); such runs skip per-node
// seeding entirely.
func deterministic(a Algorithm) bool {
	d, ok := a.(alg.Deterministic)
	return ok && d.Deterministic()
}

func runMode(cfg Config, batch batchStepper) (Result, error) {
	a := cfg.Alg
	if a == nil {
		return Result{}, errors.New("pull: nil algorithm")
	}
	if cfg.MaxRounds == 0 {
		return Result{}, errors.New("pull: MaxRounds must be positive")
	}
	n := a.N()
	c := a.C()

	// Observers may retain the states/outputs slices after the run, so
	// those runs bypass the pool (mirroring the broadcast simulator).
	var sc *runScratch
	if cfg.OnRound != nil {
		sc = newScratch(n)
	} else {
		sc = getScratch(n)
		defer putScratch(sc)
	}
	faulty := sc.faulty
	correct := uint64(n)
	for _, i := range cfg.Faulty {
		if i < 0 || i >= n {
			return Result{}, fmt.Errorf("pull: faulty node %d out of range [0,%d)", i, n)
		}
		if faulty[i] {
			return Result{}, fmt.Errorf("pull: faulty node %d listed twice", i)
		}
		faulty[i] = true
		correct--
	}
	adv := cfg.Adv
	if adv == nil {
		adv = adversary.Equivocate{}
	}

	advBase := sc.seedAll(cfg.Seed, n, !deterministic(a))

	space := a.StateSpace()
	states := sc.states
	if cfg.Init != nil {
		if len(cfg.Init) != n {
			return Result{}, fmt.Errorf("pull: Init has %d states, want %d", len(cfg.Init), n)
		}
		for i, s := range cfg.Init {
			if s >= space {
				return Result{}, fmt.Errorf("pull: Init[%d] outside state space", i)
			}
		}
		copy(states, cfg.Init)
	} else {
		for i := range states {
			states[i] = 0
			if space > 1 {
				states[i] = uint64(sc.initRng.Int63n(int64(space)))
			}
		}
	}

	view := &adversary.View{States: states, Faulty: faulty, Space: space, Rng: sc.advRng}
	view.SetBaseSeed(advBase)

	det := sim.NewDetector(c, cfg.Window)
	next := sc.next
	outputs := sc.outputs
	var res Result
	var totalPulls, nodeRounds uint64

	for round := uint64(0); round < cfg.MaxRounds; round++ {
		if cfg.Abort != nil && cfg.Abort() {
			return Result{}, errAborted
		}
		agree := true
		common := -1
		for i := 0; i < n; i++ {
			outputs[i] = a.Output(i, states[i])
			if faulty[i] {
				continue
			}
			if common == -1 {
				common = outputs[i]
			} else if outputs[i] != common {
				agree = false
			}
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, states, outputs)
		}
		res.RoundsRun = round + 1
		if det.Observe(round, agree, common) {
			res.Stabilised = true
			res.StabilisationTime = det.Time()
			res.Violations = det.Violations()
			if cfg.StopEarly {
				finishMetrics(&res, a, totalPulls, nodeRounds)
				return res, nil
			}
		}

		view.Round = round
		if batch != nil {
			for v := 0; v < n; v++ {
				if faulty[v] {
					next[v] = states[v]
				}
			}
			env := &sc.env
			env.reset(view, adv, states, next, faulty, space, sc)
			batch.StepAll(env)
			for v := 0; v < n; v++ {
				if !faulty[v] && next[v] >= space {
					return Result{}, fmt.Errorf("pull: node %d stepped outside state space", v)
				}
			}
			// Batch algorithms pull a constant PullsPerRound per correct
			// node — the same count the reference closure tallies.
			ppr := batch.PullsPerRound()
			totalPulls += ppr * correct
			nodeRounds += correct
			if correct > 0 && ppr > res.MaxPulls {
				res.MaxPulls = ppr
			}
			copy(states, next)
			continue
		}
		for v := 0; v < n; v++ {
			if faulty[v] {
				next[v] = states[v]
				continue
			}
			var pulls uint64
			puller := func(target int) alg.State {
				pulls++
				if target < 0 || target >= n {
					return 0
				}
				if faulty[target] {
					return adv.Message(view, target, v) % space
				}
				return states[target]
			}
			next[v] = a.Step(v, states[v], puller, sc.rng(v))
			if next[v] >= space {
				return Result{}, fmt.Errorf("pull: node %d stepped outside state space", v)
			}
			totalPulls += pulls
			nodeRounds++
			if pulls > res.MaxPulls {
				res.MaxPulls = pulls
			}
		}
		copy(states, next)
	}
	res.Violations = det.Violations()
	finishMetrics(&res, a, totalPulls, nodeRounds)
	return res, nil
}

func finishMetrics(res *Result, a Algorithm, totalPulls, nodeRounds uint64) {
	if nodeRounds > 0 {
		res.MeanPulls = float64(totalPulls) / float64(nodeRounds)
	}
	bits := uint64(0)
	if s := a.StateSpace(); s > 1 {
		for v := s - 1; v > 0; v >>= 1 {
			bits++
		}
	}
	res.MaxBits = res.MaxPulls * bits
}

// Broadcast adapts a broadcast-model algorithm to the pulling model by
// pulling every peer each round — the trivial (expensive) embedding the
// randomised constructions are measured against.
type Broadcast struct {
	// A is the underlying broadcast-model algorithm.
	A alg.Algorithm
}

var _ Algorithm = Broadcast{}

// N implements Algorithm.
func (b Broadcast) N() int { return b.A.N() }

// C implements Algorithm.
func (b Broadcast) C() int { return b.A.C() }

// StateSpace implements Algorithm.
func (b Broadcast) StateSpace() uint64 { return b.A.StateSpace() }

// Output implements Algorithm.
func (b Broadcast) Output(node int, s alg.State) int { return b.A.Output(node, s) }

// Step implements Algorithm: it pulls all n-1 peers and delegates to the
// broadcast transition.
func (b Broadcast) Step(node int, own alg.State, pull Puller, rng *rand.Rand) alg.State {
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
