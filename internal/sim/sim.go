// Package sim is the synchronous full-information network simulator.
//
// It implements exactly the model of Section 2 of the paper: computation
// proceeds in lock-step rounds; in each round every processor broadcasts
// its state, receives the vector of all n states, and applies its
// transition function. Initial states are arbitrary (here: adversarially
// seeded or uniformly random), and up to f Byzantine nodes may present
// different states to different receivers, as chosen by an
// adversary.Adversary.
//
// The simulator also performs online stabilisation detection: it finds
// the earliest round t such that from t onward all correct nodes output
// the same value and increment it by one modulo c each round.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
)

// DefaultWindowFor returns the default number of consecutive correct
// rounds required before a run is declared stabilised: two full counter
// cycles plus slack, so that "accidental" agreement cannot be mistaken
// for stabilisation.
func DefaultWindowFor(c int) uint64 { return uint64(2*c + 16) }

// Config describes one simulation run.
type Config struct {
	// Alg is the algorithm under test.
	Alg alg.Algorithm

	// Faulty lists the Byzantine node indices. len(Faulty) may be at most
	// Alg.F() for the run to be within the design envelope; the simulator
	// permits more (for overload experiments) but Result.Overloaded is
	// then set.
	Faulty []int

	// Adv chooses Byzantine messages. Defaults to adversary.Equivocate
	// when nil and Faulty is non-empty.
	Adv adversary.Adversary

	// Seed drives all randomness: initial states, per-node coins, and the
	// adversary stream. Runs are reproducible given (Config, Seed).
	Seed int64

	// MaxRounds bounds the execution length. Required.
	MaxRounds uint64

	// Window is the number of consecutive correct counting rounds needed
	// to declare stabilisation. Defaults to DefaultWindowFor(Alg.C()).
	Window uint64

	// Init optionally fixes the initial states (length N). When nil,
	// initial states are uniform over the state space — the adversary
	// additionally controls what faulty nodes send, so arbitrary initial
	// configurations are covered by seeds plus adversary choice.
	Init []alg.State

	// StopEarly stops the run once the stabilisation window has been
	// confirmed (default true via Run; RunFull disables it).
	StopEarly bool

	// OnRound, when non-nil, observes every round: it receives the round
	// number, start-of-round states, and outputs of all nodes (entries of
	// faulty nodes are present but meaningless). Used by the figure
	// harnesses to record traces.
	OnRound func(round uint64, states []alg.State, outputs []int)

	// Abort, when non-nil, is polled once per round; the run stops with
	// ErrAborted as soon as it returns true. The campaign engine uses it
	// to propagate context cancellation into long runs.
	Abort func() bool

	// NoBitSlice disables the bit-sliced stepping path. By default,
	// algorithms implementing alg.BitSliceStepper with SliceBits() > 0
	// (the binary and small-modulus stacks) step all correct nodes via
	// word-parallel vote logic on transposed bit-planes; results are
	// bit-identical either way. The kernel benchmarks set it to keep
	// the Reference/Vectorized pairs measuring the vectorized path.
	NoBitSlice bool

	// NoFastForward disables the periodicity-aware fast-forward engine
	// (see internal/sim/fastforward.go). By default eligible runs —
	// deterministic algorithm, snapshottable adversary with a finite
	// period, no OnRound observer — detect their configuration cycle
	// and conclude the stabilisation window and verification tail
	// analytically, producing a Result bit-identical to simulating
	// every round. Ineligible runs are unaffected either way.
	NoFastForward bool

	// Memo, when non-nil together with MemoAlg, shares confirmed
	// trajectory cycles across the trials of a campaign: a trial whose
	// configuration reaches a cycle another trial already published
	// (same algorithm build, faulty set and adversary) skips straight
	// to the analytic conclusion. Purely an accelerator — results are
	// bit-identical with or without it.
	Memo *harness.TrajectoryMemo

	// MemoAlg identifies the algorithm build in Memo keys (name plus
	// parameters). Configs of different builds sharing one Memo must
	// pass distinct identifiers; an empty MemoAlg disables the memo.
	MemoAlg string
}

// ErrAborted is returned by Run/RunFull when Config.Abort requested an
// early stop.
var ErrAborted = errors.New("sim: run aborted")

// Result reports the outcome of a run.
type Result struct {
	// Stabilised reports whether a correct-counting streak of at least
	// Window rounds was observed.
	Stabilised bool
	// StabilisationTime is the first round of that streak — the measured
	// t such that all later observed rounds count correctly. Only valid
	// when Stabilised.
	StabilisationTime uint64
	// RoundsRun is the number of rounds actually simulated.
	RoundsRun uint64
	// Overloaded reports that more than Alg.F() faults were injected.
	Overloaded bool
	// Violations counts rounds that broke agreement or the increment
	// rule after stabilisation was first confirmed (always 0 for a
	// correct deterministic algorithm within its fault budget; the
	// empirical failure count for probabilistic counters).
	Violations uint64
	// MessagesPerRound is the number of point-to-point messages correct
	// nodes send per round in the broadcast model: each of the n-|F|
	// correct nodes sends to n-1 peers.
	MessagesPerRound uint64
	// BitsPerRound is MessagesPerRound times the state size in bits.
	BitsPerRound uint64
}

// Run executes the configured simulation, stopping early once
// stabilisation is confirmed.
func Run(cfg Config) (Result, error) {
	cfg.StopEarly = true
	return run(cfg)
}

// RunFull executes the configured simulation for exactly MaxRounds,
// regardless of when stabilisation occurs (used to double-check that
// agreement persists).
func RunFull(cfg Config) (Result, error) {
	cfg.StopEarly = false
	return run(cfg)
}

// run executes the simulation on the vectorized round kernel: one
// shared receive base per round (correct nodes broadcast, so all
// receivers observe the same state from them) plus per-receiver
// patches of the ≤ f faulty slots — O(n·(f+1)) message fan-out instead
// of the O(n²) per-receiver copies of a naive loop — with batch
// stepping for algorithms implementing alg.BatchStepper.
func run(cfg Config) (Result, error) { return runMode(cfg, nil) }

// roundFunc delivers one round of messages and steps every correct
// node from sc.states into sc.next.
type roundFunc func(a alg.Algorithm, adv adversary.Adversary, view *adversary.View, sc *runScratch, space uint64) error

// runMode runs the simulation on the kernel, or — when scalar is
// non-nil — on that round function alone, with the bit-sliced path and
// fast-forward off: the test-only scalar reference loop of
// export_test.go enters here.
func runMode(cfg Config, scalar roundFunc) (Result, error) {
	a := cfg.Alg
	if a == nil {
		return Result{}, errors.New("sim: nil algorithm")
	}
	if cfg.MaxRounds == 0 {
		return Result{}, errors.New("sim: MaxRounds must be positive")
	}
	n := a.N()
	c := a.C()
	if c < 2 {
		return Result{}, fmt.Errorf("sim: algorithm has counter modulus %d < 2", c)
	}
	// The O(n) working set comes from the scratch pool so campaign
	// trials reuse per-worker slices and RNGs instead of re-allocating
	// them every run. Runs with an OnRound observer get private
	// allocations: the observer sees the states/outputs slices and may
	// retain them (trace recording), which recycling would corrupt.
	var sc *runScratch
	if cfg.OnRound == nil {
		sc = getScratch(n)
		defer putScratch(sc)
	} else {
		sc = newScratch(n)
	}
	faulty := sc.faulty
	for _, i := range cfg.Faulty {
		if i < 0 || i >= n {
			return Result{}, fmt.Errorf("sim: faulty node %d out of range [0,%d)", i, n)
		}
		if faulty[i] {
			return Result{}, fmt.Errorf("sim: faulty node %d listed twice", i)
		}
		faulty[i] = true
	}
	adv := cfg.Adv
	if adv == nil {
		adv = adversary.Equivocate{}
	}
	window := cfg.Window
	if window == 0 {
		window = DefaultWindowFor(c)
	}

	// Independent, reproducible randomness streams. Deterministic
	// algorithms never touch the per-node streams, so their (costly)
	// reseeding is skipped — the node seeds are the tail of the master
	// derivation, leaving all other streams bit-identical.
	advBase := sc.seedAll(cfg.Seed, n, !alg.IsDeterministic(a))
	initRng, advRng := sc.initRng, sc.advRng

	space := a.StateSpace()
	states := sc.states
	if cfg.Init != nil {
		if len(cfg.Init) != n {
			return Result{}, fmt.Errorf("sim: Init has %d states, want %d", len(cfg.Init), n)
		}
		for i, s := range cfg.Init {
			if s >= space {
				return Result{}, fmt.Errorf("sim: Init[%d] = %d outside state space %d", i, s, space)
			}
			states[i] = s
		}
	} else {
		for i := range states {
			states[i] = uniformState(initRng, space)
		}
	}

	next := sc.next
	outputs := sc.outputs

	correctCount := 0
	for _, f := range faulty {
		if !f {
			correctCount++
		}
	}
	res := Result{
		Overloaded:       len(cfg.Faulty) > a.F(),
		MessagesPerRound: uint64(correctCount) * uint64(n-1),
		BitsPerRound:     uint64(correctCount) * uint64(n-1) * uint64(alg.StateBits(a)),
	}

	view := &adversary.View{
		States: states,
		Faulty: faulty,
		Space:  space,
		Rng:    advRng,
	}
	view.SetBaseSeed(advBase)

	var batch alg.BatchStepper
	var sliced alg.BitSliceStepper
	var ff *ffEngine
	if scalar == nil {
		batch, _ = a.(alg.BatchStepper)
		sc.preparePatches(n)
		if !cfg.NoBitSlice {
			if bs, ok := a.(alg.BitSliceStepper); ok {
				if bits := bs.SliceBits(); bits > 0 {
					sliced = bs
					sc.planes.Provision(n, bits, sc.faulty)
				}
			}
		}
		// The fast-forward engine only rides the kernel; the scalar
		// reference loop stays the plain semantic baseline the
		// differential suites compare both against.
		if ff = sc.ff.arm(&cfg, adv, faulty); ff != nil {
			defer sc.ff.disarm()
		}
	}

	det := NewDetector(c, window)

	for round := uint64(0); round < cfg.MaxRounds; round++ {
		if cfg.Abort != nil && cfg.Abort() {
			return Result{}, ErrAborted
		}
		if ff != nil {
			if ring, ok := ff.probe(round, states); ok {
				// The execution from this round on provably replays the
				// recorded cycle: conclude detector semantics to
				// MaxRounds analytically, bit-identical to simulating.
				return finishFastForward(det, ring, round, &cfg, c, res), nil
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
		if cfg.OnRound != nil {
			cfg.OnRound(round, states, outputs)
		}
		res.RoundsRun = round + 1
		if det.Observe(round, agree, common) {
			res.Stabilised = true
			res.StabilisationTime = det.Time()
			res.Violations = det.Violations()
			if cfg.StopEarly {
				return res, nil
			}
		}
		if ff != nil {
			ff.record(agree, common)
		}

		// Deliver messages and step every correct node.
		view.Round = round
		var err error
		if scalar != nil {
			err = scalar(a, adv, view, sc, space)
		} else {
			err = kernelRound(a, batch, sliced, adv, view, sc, space)
		}
		if err != nil {
			return Result{}, err
		}
		copy(states, next)
	}
	res.Violations = det.Violations()
	return res, nil
}

// uniformState draws a uniform initial state; see alg.UniformState for
// the overflow-safe draw rule shared with the adversary package.
func uniformState(rng *rand.Rand, space uint64) alg.State {
	return alg.UniformState(rng, space)
}

// Stats aggregates stabilisation times across repeated runs.
type Stats struct {
	Trials     int
	Stabilised int
	MinTime    uint64
	MaxTime    uint64
	MeanTime   float64
}

// RunMany runs the configuration across `trials` seeds derived from
// cfg.Seed and aggregates the measured stabilisation times.
//
// It is a thin compatibility wrapper over a single-scenario campaign
// (see internal/harness): trial seeds and results are identical to the
// historical sequential loop. It runs with one worker because a shared
// Config may hold components that are not safe for concurrent use (the
// greedy lookahead adversary caches per-round state); parallel callers
// should build a Campaign with per-trial configs via CampaignScenarioFunc.
func RunMany(cfg Config, trials int) (Stats, error) {
	if trials <= 0 {
		return Stats{}, errors.New("sim: trials must be positive")
	}
	cfg.StopEarly = true
	res, err := harness.Campaign{
		Name:      "runmany",
		Seed:      cfg.Seed,
		Workers:   1,
		Scenarios: []harness.Scenario{CampaignScenario("runmany", cfg, trials)},
	}.Run(context.Background())
	if err != nil {
		return Stats{}, err
	}
	s := res.Scenarios[0].Stats
	return Stats{
		Trials:     s.Trials,
		Stabilised: s.Stabilised,
		MinTime:    s.MinTime,
		MaxTime:    s.MaxTime,
		MeanTime:   s.MeanTime,
	}, nil
}
