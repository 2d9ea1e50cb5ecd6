// Package synchcount is a library of self-stabilising Byzantine
// fault-tolerant synchronous counters, reproducing
//
//	Christoph Lenzen, Joel Rybicki, Jukka Suomela:
//	"Towards Optimal Synchronous Counting", PODC 2015
//	(arXiv:1503.06702).
//
// Problem. A fully connected network of n nodes receives a common clock
// pulse but no round numbers. Starting from arbitrary states and with up
// to f Byzantine nodes, all correct nodes must eventually agree on a
// counter and increment it modulo c every round — the synchronous
// c-counting problem, a self-stabilising analogue of consensus used to
// derive dependable round numbers in redundant circuits.
//
// The library provides:
//
//   - the paper's resilience-boosting construction (Theorem 1) and its
//     recursive applications: optimal-resilience counters (Corollary 1),
//     fixed block counts (Theorem 2) and varying block counts
//     (Theorem 3), all as deterministic algorithms with exact space
//     accounting and predicted stabilisation-time bounds;
//   - the randomised pulling-model counters of Section 5 (Theorem 4,
//     Corollaries 4–5) with per-node message accounting;
//   - randomised baseline algorithms from the literature summarised in
//     the paper's Table 1;
//   - a synchronous-network simulator with a Byzantine adversary suite
//     and online stabilisation detection;
//   - an algorithm synthesiser that exhaustively model-checks every
//     candidate on small instances, reproducing the "computer-designed
//     algorithms" method the paper builds upon.
//
// Quick start:
//
//	cnt, err := synchcount.OptimalResilience(1, 10) // A(4,1): 4 nodes, 1 fault, count mod 10
//	if err != nil { ... }
//	res, err := synchcount.Simulate(synchcount.SimConfig{
//		Alg:       cnt,
//		Faulty:    []int{2},
//		Adv:       synchcount.MustAdversary("splitvote"),
//		Seed:      1,
//		MaxRounds: cnt.StabilisationBound() + 100,
//	})
package synchcount

import (
	"fmt"
	"io"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/boost"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/pull"
	"github.com/synchcount/synchcount/internal/recursion"
	"github.com/synchcount/synchcount/internal/reduction"
	"github.com/synchcount/synchcount/internal/registry"
	"github.com/synchcount/synchcount/internal/sim"
	"github.com/synchcount/synchcount/internal/synth"
)

// Core abstractions (see internal/alg for full documentation).
type (
	// Algorithm is the paper's (X, g, h) tuple: a synchronous c-counter
	// candidate on n nodes.
	Algorithm = alg.Algorithm
	// State is a node state, a value in [0, StateSpace()).
	State = alg.State
	// Adversary chooses the states Byzantine nodes present to each
	// receiver every round.
	Adversary = adversary.Adversary
)

// Simulation front-end (see internal/sim).
type (
	// SimConfig configures a broadcast-model simulation run.
	SimConfig = sim.Config
	// SimResult reports a broadcast-model run.
	SimResult = sim.Result
)

// Simulate runs one broadcast-model simulation with early stop on
// confirmed stabilisation.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// SimulateFull runs for exactly MaxRounds (no early stop), counting any
// post-stabilisation violations.
func SimulateFull(cfg SimConfig) (SimResult, error) { return sim.RunFull(cfg) }

// SimulateMany aggregates stabilisation statistics across derived seeds.
// It runs sequentially for compatibility; use a Campaign for parallel
// trial execution and richer statistics.
func SimulateMany(cfg SimConfig, trials int) (CampaignStats, error) { return sim.RunMany(cfg, trials) }

// Campaign engine (see internal/harness): a grid of scenarios executed
// concurrently over a worker pool with deterministic per-trial seed
// derivation, context cancellation, streaming sinks, cross-process
// sharding and JSON/CSV/NDJSON export. A Campaign runs itself: Run
// buffers every trial, Stream feeds sinks, and Shard/StreamShard split
// the grid across processes.
type (
	// Campaign is a grid of scenarios executed as one parallel batch.
	Campaign = harness.Campaign
	// Scenario is one cell of a campaign grid.
	Scenario = harness.Scenario
	// CampaignResult is a completed campaign with per-scenario results.
	CampaignResult = harness.Result
	// CampaignStats aggregates one scenario's trials, including
	// median/p95/p99 stabilisation times.
	CampaignStats = harness.Stats
	// CampaignSink consumes per-trial records as a campaign streams;
	// the engine serialises emissions and delivers them in
	// deterministic order at any worker count.
	CampaignSink = harness.Sink
	// CampaignSinkFunc adapts a per-trial callback to a CampaignSink.
	CampaignSinkFunc = harness.SinkFunc
	// CampaignTrialRecord is the flat, self-describing streamed form of
	// one trial (NDJSON line / sink payload).
	CampaignTrialRecord = harness.TrialRecord
	// ShardSpec pins the slice of a campaign one shard executes; it
	// serialises to JSON losslessly for cross-process orchestration.
	ShardSpec = harness.ShardSpec
)

// CampaignNDJSONSink returns a sink streaming one JSON line per trial
// to w, byte-identical to CampaignResult.WriteNDJSON of the same
// campaign.
func CampaignNDJSONSink(w io.Writer) CampaignSink { return harness.NDJSONSink(w) }

// ParseShardSpec decodes and validates a ShardSpec from its JSON
// interchange form.
func ParseShardSpec(data []byte) (ShardSpec, error) { return harness.ParseShardSpec(data) }

// SimScenario adapts a broadcast-model SimConfig to a campaign scenario
// of `trials` trials. The config is shared across concurrent trials and
// must therefore only reference read-only components (the greedy
// adversary is not; use SimScenarioFunc for it).
func SimScenario(name string, cfg SimConfig, trials int) Scenario {
	return sim.CampaignScenario(name, cfg, trials)
}

// SimScenarioFunc builds a campaign scenario whose SimConfig is
// constructed freshly per trial — required for per-run mutable state
// such as the greedy adversary or OnRound trace sinks.
func SimScenarioFunc(name string, trials int, build func(trial int) (SimConfig, error)) Scenario {
	return sim.CampaignScenarioFunc(name, trials, build, nil)
}

// PullScenario adapts a pulling-model PullConfig to a campaign scenario
// of `trials` trials.
func PullScenario(name string, cfg PullConfig, trials int) Scenario {
	return sim.PullCampaignScenario(name, cfg, trials)
}

// Recursive construction plans (see internal/recursion).
type (
	// Plan is a stack of Theorem 1 applications over the trivial base.
	Plan = recursion.Plan
	// PlanLevel is one Theorem 1 application: K blocks, resilience F.
	PlanLevel = recursion.Level
	// PlanStats predicts N, F, stabilisation bound and state bits.
	PlanStats = recursion.Stats
	// Counter is a counter built by the boosting construction; it
	// implements Algorithm and exposes the construction's structure.
	Counter = boost.Counter
	// BoostParams are the free parameters of a single Theorem 1 step.
	BoostParams = boost.Params
)

// OptimalResilience builds the Corollary 1 counter: resilience f < n/3
// on n = 3f+1 nodes, counting modulo c, stabilising in f^O(f) rounds.
func OptimalResilience(f, c int) (*Counter, error) {
	p, err := recursion.Corollary1(f, c)
	if err != nil {
		return nil, err
	}
	top, _, _, err := recursion.Build(p)
	return top, err
}

// Scalable builds the Theorem 2 counter: `depth` recursion levels with a
// fixed block count k, yielding resilience Ω(n^(1-ε)) with linear-in-f
// stabilisation time and polylogarithmic state.
func Scalable(k, depth, c int) (*Counter, error) {
	p, err := recursion.FixedK(k, depth, c)
	if err != nil {
		return nil, err
	}
	top, _, _, err := recursion.Build(p)
	return top, err
}

// Figure2 builds the paper's Figure 2 demonstration stack:
// A(4,1) → A(12,3) → A(36,7), counting modulo c.
func Figure2(c int) (*Counter, error) {
	p, err := recursion.Figure2(c)
	if err != nil {
		return nil, err
	}
	top, _, _, err := recursion.Build(p)
	return top, err
}

// FromPlan builds an arbitrary recursion plan, returning the top-level
// counter, all intermediate levels, and the plan statistics.
func FromPlan(p Plan) (*Counter, []*Counter, PlanStats, error) { return recursion.Build(p) }

// Boost applies a single step of Theorem 1 to an existing base counter.
func Boost(base Algorithm, params BoostParams) (*Counter, error) { return boost.New(base, params) }

// PlanFixedK returns the Theorem 2 plan (fixed block count).
func PlanFixedK(k, depth, c int) (Plan, error) { return recursion.FixedK(k, depth, c) }

// PlanVaryingK returns the Theorem 3 plan (block count halving across
// phases).
func PlanVaryingK(phases, c int) (Plan, error) { return recursion.VaryingK(phases, c) }

// PredictPlan computes a plan's parameters (N, F, time bound, state
// bits) without instantiating it. Its state bits are Theorem 1's
// per-level sum, which can exceed the built counter's StateBits.
func PredictPlan(p Plan) (PlanStats, error) { return recursion.PredictedStats(p) }

// Baseline algorithms (Table 1 rows; see internal/counter).

// TrivialCounter returns the 0-resilient single-node c-counter.
func TrivialCounter(c int) (Algorithm, error) { return counter.NewTrivial(c) }

// RandomizedAgree returns the folklore randomised 2-counter of Table 1
// rows [6,7]: one state bit, expected stabilisation 2^Θ(n-f).
func RandomizedAgree(n, f int) (Algorithm, error) { return counter.NewRandomizedAgree(n, f) }

// Follow-up constructions (arXiv:1508.02535; see internal/ecount) and
// the algorithm registry (see internal/registry).
type (
	// RegistryParams is the uniform (n, f, c) parameterisation of the
	// algorithm registry; zero fields take per-algorithm defaults.
	RegistryParams = registry.Params
)

// RegisteredAlgorithms lists the algorithm registry names in
// presentation order.
func RegisteredAlgorithms() []string { return registry.Names() }

// BuildRegistered constructs a registered algorithm by name from the
// uniform parameterisation — the registry's common constructor.
func BuildRegistered(name string, p RegistryParams) (Algorithm, error) {
	return registry.Build(name, p)
}

// Adversaries.

// Adversaries lists the built-in Byzantine strategy names.
func Adversaries() []string { return adversary.Names() }

// AdversaryByName looks up a built-in Byzantine strategy.
func AdversaryByName(name string) (Adversary, error) { return adversary.ByName(name) }

// MustAdversary is AdversaryByName for statically known names; it panics
// on unknown names and is intended for examples and tests.
func MustAdversary(name string) Adversary {
	a, err := adversary.ByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

// Saboteur returns the construction-aware adversary that tips leader
// votes and splits phase king quorums of the given counter — the
// strongest attack in the suite for measuring worst-case-ish
// stabilisation times.
func Saboteur(c *Counter) Adversary { return boost.Saboteur{C: c} }

// Greedy wraps an adversary with one-step-lookahead optimisation: each
// round it simulates candidate Byzantine assignments against the (must
// be deterministic) algorithm and commits to the one maximising
// disagreement. Used for bound-tightness measurements.
func Greedy(a Algorithm, inner Adversary, samples int) (Adversary, error) {
	return adversary.NewGreedy(a, inner, samples)
}

// Pulling model (Section 5; the run loop is internal/sim's, the
// algorithms are internal/pull's).
type (
	// PullAlgorithm is a counting algorithm in the pulling model.
	PullAlgorithm = sim.PullAlgorithm
	// PullConfig configures a pulling-model run.
	PullConfig = sim.PullConfig
	// PullResult reports a pulling-model run, including per-node message
	// complexity.
	PullResult = sim.PullResult
	// SampledCounter is the randomised counter of Theorem 4 /
	// Corollary 5.
	SampledCounter = pull.SampledCounter
	// Gossip is the fixed-wiring k-sample plurality counter behind the
	// large-n sparse pulling-model cells.
	Gossip = pull.Gossip
)

// Sampled wraps a boosted counter with the sampled communication of
// Theorem 4: M samples per vote, thresholds 2/3·M and 1/3·M. With
// pseudo set, sampling wires are fixed once (Corollary 5).
func Sampled(c *Counter, m int, pseudo bool, wireSeed int64) (*SampledCounter, error) {
	return pull.NewSampled(c, m, pseudo, wireSeed)
}

// PullBroadcast embeds a broadcast-model algorithm in the pulling model
// (each node pulls all n-1 peers).
func PullBroadcast(a Algorithm) PullAlgorithm { return pull.Broadcast{A: a} }

// NewGossip builds the fixed-wiring k-sample plurality c-counter on n
// nodes: the million-node workload of the sparse pull kernel. wireSeed
// fixes the sampling wiring (the Corollary 5 pattern).
func NewGossip(n, c, k int, wireSeed int64) (*Gossip, error) {
	return pull.NewGossip(n, c, k, wireSeed)
}

// SimulatePullFull runs a pulling-model simulation for exactly
// MaxRounds.
func SimulatePullFull(cfg PullConfig) (PullResult, error) { return sim.RunPullFull(cfg) }

// Consensus from counting (see internal/reduction): the paper's intro
// notes that counting and binary consensus are interconvertible; this is
// the counting → consensus direction.
type (
	// ConsensusMachine is a self-stabilising repeated-consensus service
	// scheduled by a counter: after the counter stabilises, every epoch
	// of 3(f+2) rounds decides one value with agreement and validity.
	ConsensusMachine = reduction.Machine
	// ConsensusInput supplies each node's input per epoch.
	ConsensusInput = reduction.InputFunc
)

// RepeatedConsensus layers a phase-king consensus service over a
// counting algorithm. The counter's modulus must be a multiple of
// 3(f+2); vals is the input domain size.
func RepeatedConsensus(clock Algorithm, vals int, inputs ConsensusInput) (*ConsensusMachine, error) {
	return reduction.New(clock, vals, inputs)
}

// Synthesis (see internal/synth; every candidate is model-checked by
// internal/verify).
type (
	// SynthOptions tune the synthesiser's exhaustive search.
	SynthOptions = synth.Options
	// SynthFound is one synthesised and verified counter.
	SynthFound = synth.Found
)

// Synthesise searches the anonymous single-bit algorithm class for
// correct 2-counters on n nodes with resilience f, re-running the
// "computational algorithm design" method behind the paper's Table 1.
func Synthesise(n, f int, opts SynthOptions) ([]SynthFound, error) { return synth.Search(n, f, opts) }

// StateBits returns the paper's space complexity S(A) = ⌈log₂|X|⌉.
func StateBits(a Algorithm) int { return alg.StateBits(a) }

// IsDeterministic reports whether the algorithm declares itself
// deterministic.
func IsDeterministic(a Algorithm) bool { return alg.IsDeterministic(a) }

// StabilisationBound returns the predicted stabilisation-time bound for
// algorithms that expose one (all deterministic constructions in this
// library), or an error otherwise.
func StabilisationBound(a Algorithm) (uint64, error) {
	b, ok := a.(alg.Bound)
	if !ok {
		return 0, fmt.Errorf("synchcount: %T does not expose a stabilisation bound", a)
	}
	return b.StabilisationBound(), nil
}
