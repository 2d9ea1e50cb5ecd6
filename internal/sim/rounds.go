package sim

import (
	"errors"
	"fmt"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
)

// errAborted is returned by a run of either model when its Abort hook
// requested an early stop.
var errAborted = errors.New("sim: run aborted")

// counting is what the run skeleton needs of an algorithm in either
// message model: alg.Algorithm satisfies it and PullAlgorithm embeds
// it.
type counting interface {
	// N returns the number of nodes.
	N() int
	// C returns the output counter modulus c.
	C() int
	// StateSpace returns |X|. Valid states are 0..|X|-1.
	StateSpace() uint64
	// Output maps node's state s to its counter value in [0, C()).
	Output(node int, s alg.State) int
}

// runSpec is the part of a run's configuration both message models
// share: Config and PullConfig carry these fields under the same names.
type runSpec struct {
	alg       counting
	faulty    []int
	adv       adversary.Adversary
	seed      int64
	maxRounds uint64
	window    uint64
	init      []alg.State
	stopEarly bool
	onRound   func(round uint64, states []alg.State, outputs []int)
	abort     func() bool
}

// verdict is the stabilisation detector's reading of a run: the fields
// Result and PullResult share.
type verdict struct {
	Stabilised        bool
	StabilisationTime uint64
	RoundsRun         uint64
	Violations        uint64
}

// roundFunc delivers round view.Round's messages and steps every
// correct node from sc.states into sc.next. It is the seam between the
// run skeleton and a message model: the broadcast kernel, the pulling
// model's batch and closure rounds and the tests' broadcast scalar
// reference are all round functions.
type roundFunc func(adv adversary.Adversary, view *adversary.View, sc *runScratch) error

// prepareFunc provisions a message model's working set once sc holds
// the run's fault mask, seed streams and initial states. It returns the
// model's round function and, when the run may skip ahead analytically,
// the armed fast-forward engine (nil otherwise).
type prepareFunc func(sc *runScratch, view *adversary.View, adv adversary.Adversary) (roundFunc, *ffEngine)

// runRounds is the run skeleton both message models share. It validates
// the configuration, takes the working set from the scratch pool,
// derives the seed streams, draws the initial states and runs the
// per-round agreement and Detector loop, leaving message delivery to
// the model's round function.
func runRounds(spec *runSpec, prepare prepareFunc) (verdict, error) {
	a := spec.alg
	if a == nil {
		return verdict{}, errors.New("sim: nil algorithm")
	}
	if spec.maxRounds == 0 {
		return verdict{}, errors.New("sim: MaxRounds must be positive")
	}
	n := a.N()
	c := a.C()
	if c < 2 {
		return verdict{}, fmt.Errorf("sim: algorithm has counter modulus %d < 2", c)
	}
	// The O(n) working set comes from the scratch pool so campaign
	// trials reuse per-worker slices and RNGs instead of re-allocating
	// them every run. Runs with an OnRound observer get private
	// allocations: the observer sees the states/outputs slices and may
	// retain them (trace recording), which recycling would corrupt.
	var sc *runScratch
	if spec.onRound == nil {
		sc = getScratch(n)
		defer putScratch(sc)
	} else {
		sc = newScratch(n)
	}
	faulty := sc.faulty
	for _, i := range spec.faulty {
		if i < 0 || i >= n {
			return verdict{}, fmt.Errorf("sim: faulty node %d out of range [0,%d)", i, n)
		}
		if faulty[i] {
			return verdict{}, fmt.Errorf("sim: faulty node %d listed twice", i)
		}
		faulty[i] = true
	}
	adv := spec.adv
	if adv == nil {
		adv = adversary.Equivocate{}
	}

	// Independent, reproducible randomness streams. Deterministic
	// algorithms never touch the per-node streams, so their seeding is
	// skipped — the node seeds are the tail of the master derivation,
	// leaving all other streams bit-identical.
	d, ok := a.(alg.Deterministic)
	advBase := sc.seedAll(spec.seed, n, !(ok && d.Deterministic()))

	space := a.StateSpace()
	states := sc.states
	if spec.init != nil {
		if len(spec.init) != n {
			return verdict{}, fmt.Errorf("sim: Init has %d states, want %d", len(spec.init), n)
		}
		for i, s := range spec.init {
			if s >= space {
				return verdict{}, fmt.Errorf("sim: Init[%d] = %d outside state space %d", i, s, space)
			}
			states[i] = s
		}
	} else {
		for i := range states {
			states[i] = alg.UniformState(sc.initRng, space)
		}
	}

	view := &adversary.View{
		States: states,
		Faulty: faulty,
		Space:  space,
		Rng:    sc.advRng,
	}
	view.SetBaseSeed(advBase)

	step, ff := prepare(sc, view, adv)
	if ff != nil {
		defer ff.disarm()
	}
	det := NewDetector(c, spec.window)
	outputs := sc.outputs
	var res verdict
	for round := uint64(0); round < spec.maxRounds; round++ {
		if spec.abort != nil && spec.abort() {
			return verdict{}, errAborted
		}
		if ff != nil {
			if ring, ok := ff.probe(round, states); ok {
				// The execution from this round on provably replays the
				// recorded cycle: conclude detector semantics to
				// MaxRounds analytically, bit-identical to simulating.
				return finishFastForward(det, ring, round, spec, c, res), nil
			}
		}
		// Observe outputs of the start-of-round configuration.
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
		if spec.onRound != nil {
			spec.onRound(round, states, outputs)
		}
		res.RoundsRun = round + 1
		if det.Observe(round, agree, common) {
			res.Stabilised = true
			res.StabilisationTime = det.Time()
			res.Violations = det.Violations()
			if spec.stopEarly {
				return res, nil
			}
		}
		if ff != nil {
			ff.record(agree, common)
		}

		// Deliver messages and step every correct node.
		view.Round = round
		if err := step(adv, view, sc); err != nil {
			return verdict{}, err
		}
		copy(states, sc.next)
	}
	res.Violations = det.Violations()
	return res, nil
}
