// Package sim is the synchronous network simulator, for both message
// models of the paper.
//
// The broadcast model is exactly the model of Section 2: computation
// proceeds in lock-step rounds; in each round every processor broadcasts
// its state, receives the vector of all n states, and applies its
// transition function (Config, Run, RunFull). In the pulling model of
// Section 5 each processor instead pulls the states of the few nodes it
// chooses, and a run also measures the per-node message and bit
// complexity (PullConfig, RunPullFull); the pulling-model algorithms
// live in internal/pull. Initial states are arbitrary (here:
// adversarially seeded or uniformly random), and up to f Byzantine
// nodes may present different states to different receivers, as chosen
// by an adversary.Adversary.
//
// Both models run on one skeleton (rounds.go): validation, pooled
// scratch, seed derivation, initial states and online stabilisation
// detection — finding the earliest round t such that from t onward all
// correct nodes output the same value and increment it by one modulo c
// each round. A model supplies only its round function.
package sim

import (
	"context"
	"errors"

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
	// errAborted as soon as it returns true. The campaign engine uses it
	// to propagate context cancellation into long runs.
	Abort func() bool

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
// Algorithms implementing alg.BitSliceStepper with SliceBits() > 0
// (the binary and small-modulus stacks) step all correct nodes via
// word-parallel vote logic on transposed bit-planes instead; results
// are bit-identical either way.
func run(cfg Config) (Result, error) { return runMode(cfg, nil, true) }

// runMode runs the broadcast model on the run skeleton: on the kernel,
// taking the bit-sliced path when bitSlice is set and the algorithm
// qualifies, or — when scalar is non-nil — on that round function
// alone, with the bit-sliced path and fast-forward off. The test-only
// scalar reference loop and vectorized-only kernel of export_test.go
// enter here.
func runMode(cfg Config, scalar roundFunc, bitSlice bool) (Result, error) {
	a := cfg.Alg
	v, err := runRounds(&runSpec{
		alg: a, faulty: cfg.Faulty, adv: cfg.Adv, seed: cfg.Seed,
		maxRounds: cfg.MaxRounds, window: cfg.Window, init: cfg.Init,
		stopEarly: cfg.StopEarly, onRound: cfg.OnRound, abort: cfg.Abort,
	}, func(sc *runScratch, _ *adversary.View, adv adversary.Adversary) (roundFunc, *ffEngine) {
		n := a.N()
		sc.provisionStreams(n)
		sc.preparePatches(n)
		if scalar != nil {
			// The fast-forward engine only rides the kernel; the scalar
			// reference loop stays the plain semantic baseline the
			// differential suites compare both against.
			return scalar, nil
		}
		batch, _ := a.(alg.BatchStepper)
		var sliced alg.BitSliceStepper
		if bs, ok := a.(alg.BitSliceStepper); ok && bitSlice {
			if bits := bs.SliceBits(); bits > 0 {
				sliced = bs
				sc.planes.Provision(n, bits, sc.faulty)
			}
		}
		round := func(adv adversary.Adversary, view *adversary.View, sc *runScratch) error {
			return kernelRound(a, batch, sliced, adv, view, sc)
		}
		return round, sc.ff.arm(&cfg, adv, sc.faulty)
	})
	if err != nil {
		return Result{}, err
	}
	n := uint64(a.N())
	messages := (n - uint64(len(cfg.Faulty))) * (n - 1)
	return Result{
		Stabilised:        v.Stabilised,
		StabilisationTime: v.StabilisationTime,
		RoundsRun:         v.RoundsRun,
		Violations:        v.Violations,
		Overloaded:        len(cfg.Faulty) > a.F(),
		MessagesPerRound:  messages,
		BitsPerRound:      messages * uint64(alg.StateBits(a)),
	}, nil
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
func RunMany(cfg Config, trials int) (harness.Stats, error) {
	if trials <= 0 {
		return harness.Stats{}, errors.New("sim: trials must be positive")
	}
	cfg.StopEarly = true
	res, err := harness.Campaign{
		Name:      "runmany",
		Seed:      cfg.Seed,
		Workers:   1,
		Scenarios: []harness.Scenario{CampaignScenario("runmany", cfg, trials)},
	}.Run(context.Background())
	if err != nil {
		return harness.Stats{}, err
	}
	return res.Scenarios[0].Stats, nil
}
