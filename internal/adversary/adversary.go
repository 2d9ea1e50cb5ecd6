// Package adversary implements Byzantine behaviours for the synchronous
// full-information model of the paper.
//
// A Byzantine node "may exhibit arbitrary behaviour, including to send
// different messages to every node". The Adversary interface is therefore
// per-(sender, receiver): each round, for every faulty sender and every
// receiver, the adversary chooses the state the receiver observes. The
// adversary is omniscient (it sees all correct states at the start of the
// round) and adaptive, but it cannot predict the coin flips that correct
// nodes make *within* the current round — the standard adaptive-adversary
// model for randomised self-stabilisation.
package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/synchcount/synchcount/internal/alg"
)

// View is the omniscient snapshot handed to the adversary each round.
type View struct {
	// Round is the current round number (0-based).
	Round uint64
	// States holds the start-of-round states of all nodes. Entries for
	// faulty nodes are unspecified and must not be relied upon.
	States []alg.State
	// Faulty[i] reports whether node i is Byzantine.
	Faulty []bool
	// Space is the algorithm's state-space size |X|; any value in
	// [0, Space) is a legal message.
	Space uint64
	// Rng is the adversary's private randomness.
	Rng *rand.Rand

	baseSeed int64

	// Round-scoped scratch: the correct-state vector is recomputed at
	// most once per round and shared by every Message/MessageRow call
	// of that round, instead of one fresh slice per point-to-point
	// message (spread and flip used to allocate O(n) per message).
	correctScratch []alg.State
	correctRound   uint64
	correctValid   bool
	// majority caches alg.Majority of the correct-state vector for the
	// same round (flip's target); majorityValid is cleared whenever
	// the vector is recomputed.
	majority      alg.State
	majorityValid bool
	// campA/campB cache splitVote's two camps for the same round under
	// the same rule; campsValid is cleared with majorityValid.
	campA, campB alg.State
	campsValid   bool
}

// AppendCorrectStates appends the states of all correct nodes, in node
// order, to dst and returns the extended slice.
func (v *View) AppendCorrectStates(dst []alg.State) []alg.State {
	for i, s := range v.States {
		if !v.Faulty[i] {
			dst = append(dst, s)
		}
	}
	return dst
}

// correctStates returns the correct-state vector for the current
// round, computing it at most once per round into the View's scratch.
// Callers must not retain or mutate the returned slice.
func (v *View) correctStates() []alg.State {
	if !v.correctValid || v.correctRound != v.Round {
		v.correctScratch = v.AppendCorrectStates(v.correctScratch[:0])
		v.correctRound = v.Round
		v.correctValid = true
		v.majorityValid = false
		v.campsValid = false
	}
	return v.correctScratch
}

// correctMajority returns the absolute majority of the current round's
// correct states (0 if none), computed at most once per round.
func (v *View) correctMajority() alg.State {
	correct := v.correctStates()
	if !v.majorityValid {
		v.majority = alg.Majority(correct)
		v.majorityValid = true
	}
	return v.majority
}

// splitCamps returns splitVote's two camps for the current round: the
// first correct state and the first correct state differing from it
// (the first perturbed down by one under unanimity), computed at most
// once per round. ok is false when no node is correct.
func (v *View) splitCamps() (a, b alg.State, ok bool) {
	correct := v.correctStates()
	if len(correct) == 0 {
		return 0, 0, false
	}
	if !v.campsValid {
		a = correct[0]
		b = (a + v.Space - 1) % v.Space
		for _, s := range correct[1:] {
			if s != a {
				b = s
				break
			}
		}
		v.campA, v.campB, v.campsValid = a, b, true
	}
	return v.campA, v.campB, true
}

// Adversary chooses, for every faulty sender, the state each receiver
// observes. Implementations must be deterministic given (View.Rng, View);
// all randomness must come from View.Rng so runs are reproducible.
type Adversary interface {
	// Name identifies the strategy (used by CLIs and experiment tables).
	Name() string
	// Message returns the state faulty node from presents to receiver to.
	Message(v *View, from, to int) alg.State
}

// RowMessenger is the vectorized fan-out hook: the simulator's round
// kernel delivers all faulty-sender messages for one receiver in a
// single call, sparing one interface dispatch per (sender, receiver)
// pair. MessageRow must be observationally identical to calling
// Message(v, senders[j], to) for j ascending — including the order of
// draws from the shared View.Rng — which is exactly how the kernel
// invokes it (receivers ascending, senders ascending). Strategies
// without the hook fall back to per-pair Message.
type RowMessenger interface {
	Adversary
	// MessageRow fills row[j] with the state senders[j] presents to
	// receiver to this round. len(row) == len(senders); senders lists
	// the faulty nodes in ascending order.
	MessageRow(v *View, senders []int, to int, row []alg.State)
}

// snapshottable is the stateless-adversary marker the simulator's
// periodicity-aware fast-forward engine gates on. Implementing it
// asserts that the strategy keeps no hidden mutable state of its own —
// every message choice is a pure function of the View it is handed.
// All seven built-in strategies qualify; the greedy lookahead caches
// per-round assignments across calls and therefore opts out by not
// implementing the interface.
//
// SnapshotPeriod additionally classifies how the choices depend on
// time and randomness:
//
//   - p >= 1: the whole per-round message matrix is a pure function of
//     (round mod p, the *correct* States entries, Faulty, Space) — in
//     particular independent of View.Rng and of the States entries of
//     faulty nodes (which the View contract leaves unspecified
//     anyway). Configurations then evolve as a pure function of
//     (configuration, round mod p) and the engine can detect cycles,
//     fast-forward, and merge trajectories across trials. Every
//     round-oblivious strategy returns 1.
//   - 0: the strategy is still stateless, but its choices draw on the
//     adversary randomness stream or the absolute round number
//     (random draws from a seed derived from the absolute round;
//     Equivocate consumes the shared stream), so the effective
//     configuration includes a round or RNG cursor that never revisits
//     itself within any realistic horizon. Fast-forward stands down
//     and the run proceeds on the plain kernel, bit for bit as before.
type snapshottable interface {
	Adversary
	// SnapshotPeriod returns the round period p of the strategy's
	// message function, or 0 when the strategy is randomness- or
	// absolute-round-dependent (fast-forward ineligible).
	SnapshotPeriod() uint64
}

// SnapshotPeriodOf reports the snapshot period of a strategy and
// whether the fast-forward engine may cycle-detect under it: the
// strategy must implement snapshottable and declare a period >= 1.
func SnapshotPeriodOf(a Adversary) (uint64, bool) {
	s, ok := a.(snapshottable)
	if !ok {
		return 0, false
	}
	p := s.SnapshotPeriod()
	return p, p >= 1
}

// Silent models crash-like behaviour: the faulty node appears frozen in
// state 0 forever. This is the weakest attack and a useful baseline.
type Silent struct{}

// Name implements Adversary.
func (Silent) Name() string { return "silent" }

// Message implements Adversary.
func (Silent) Message(*View, int, int) alg.State { return 0 }

// SnapshotPeriod implements snapshottable: the frozen state is a
// constant — round- and randomness-oblivious.
func (Silent) SnapshotPeriod() uint64 { return 1 }

// random broadcasts a fresh uniform state each round, the same to all
// receivers (a non-equivocating but noisy fault). Sender from's value
// in a round is the first uniform draw of math/rand seeded with
// View.senderSeed(from), a pure function of (round, sender, base
// seed); seededDraw evaluates it in closed form, so no per-round state
// is kept and every receiver sees the same value.
type random struct{}

// Name implements Adversary.
func (random) Name() string { return "random" }

// Message implements Adversary.
func (random) Message(v *View, from, _ int) alg.State {
	return seededDraw(v.senderSeed(from), v.Space)
}

// SnapshotPeriod implements snapshottable. random is stateless but its
// per-round value is derived from the absolute round number, so the
// trajectory has no finite configuration period: fast-forward stands
// down (period 0).
func (random) SnapshotPeriod() uint64 { return 0 }

// Equivocate sends an independent uniform state to every receiver every
// round — maximal noise equivocation.
type Equivocate struct{}

// Name implements Adversary.
func (Equivocate) Name() string { return "equivocate" }

// Message implements Adversary.
func (Equivocate) Message(v *View, _, _ int) alg.State {
	return uniform(v.Rng, v.Space)
}

// SnapshotPeriod implements snapshottable. Equivocate is stateless but
// consumes the shared adversary randomness stream, whose cursor never
// revisits itself within a realistic horizon: fast-forward stands down
// (period 0).
func (Equivocate) SnapshotPeriod() uint64 { return 0 }

// mirror impersonates a correct node: every faulty node copies the state
// of the lowest-indexed correct node, making the fault invisible to
// simple agreement checks while distorting vote counts.
type mirror struct{}

// Name implements Adversary.
func (mirror) Name() string { return "mirror" }

// Message implements Adversary.
func (mirror) Message(v *View, _, _ int) alg.State {
	for i, f := range v.Faulty {
		if !f {
			return v.States[i]
		}
	}
	return 0
}

// SnapshotPeriod implements snapshottable: mirror copies a correct
// state — a pure function of (States, Faulty).
func (mirror) SnapshotPeriod() uint64 { return 1 }

// splitVote tries to keep correct nodes disagreeing: it finds two distinct
// states held by correct nodes and shows the first to even-numbered
// receivers and the second to odd-numbered receivers. When all correct
// nodes already agree it echoes a stale (decremented) state to both sides
// to stall re-convergence.
type splitVote struct{}

// Name implements Adversary.
func (splitVote) Name() string { return "splitvote" }

// Message implements Adversary. The camps are resolved once per round
// in the View's cache.
func (splitVote) Message(v *View, _, to int) alg.State {
	a, b, ok := v.splitCamps()
	switch {
	case !ok:
		return 0
	case to%2 == 0:
		return a
	}
	return b
}

// SnapshotPeriod implements snapshottable: the split depends only on
// the correct states and the receiver index.
func (splitVote) SnapshotPeriod() uint64 { return 1 }

// spread shows each receiver a different correct node's state, maximising
// disagreement about what the faulty node "is": receiver t sees the state
// of the t-th correct node (mod the number of correct nodes).
type spread struct{}

// Name implements Adversary.
func (spread) Name() string { return "spread" }

// Message implements Adversary.
func (spread) Message(v *View, _, to int) alg.State {
	correct := v.correctStates()
	if len(correct) == 0 {
		return 0
	}
	return correct[to%len(correct)]
}

// SnapshotPeriod implements snapshottable: the spread is a pure
// function of (States, Faulty) and the receiver index.
func (spread) SnapshotPeriod() uint64 { return 1 }

// flip delays convergence of binary counters: it reports the complement
// of the majority state of the correct nodes, pushing tallies away from
// unanimity thresholds. For larger state spaces it perturbs the majority
// state by +1.
type flip struct{}

// Name implements Adversary.
func (flip) Name() string { return "flip" }

// Message implements Adversary.
func (flip) Message(v *View, _, _ int) alg.State {
	return (v.correctMajority() + 1) % v.Space
}

// SnapshotPeriod implements snapshottable: the flipped majority is a
// pure function of (States, Faulty).
func (flip) SnapshotPeriod() uint64 { return 1 }

// senderSeed is the reproducible per-(round, sender) seed of a
// "broadcast" strategy's draw, so that it sends one consistent value
// per round without shared mutable state.
func (v *View) senderSeed(from int) int64 {
	return int64(v.Round)*1000003 + int64(from)*7919 + v.baseSeed
}

// SetBaseSeed fixes the seed component of the per-sender seeds.
// The simulator calls it once per run.
func (v *View) SetBaseSeed(seed int64) { v.baseSeed = seed }

// registry returns all built-in adversary strategies keyed by name.
func registry() map[string]Adversary {
	all := []Adversary{
		Silent{}, random{}, Equivocate{}, mirror{}, splitVote{}, spread{}, flip{},
	}
	m := make(map[string]Adversary, len(all))
	for _, a := range all {
		m[a.Name()] = a
	}
	return m
}

// Names returns the sorted names of all built-in strategies.
func Names() []string {
	reg := registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ByName looks up a built-in strategy.
func ByName(name string) (Adversary, error) {
	a, ok := registry()[name]
	if !ok {
		return nil, fmt.Errorf("adversary: unknown strategy %q (have %v)", name, Names())
	}
	return a, nil
}

// uniform draws a uniform forged state; see alg.UniformState for the
// overflow-safe draw rule shared with the simulator's initial-state
// draws.
func uniform(rng *rand.Rand, space uint64) alg.State {
	return alg.UniformState(rng, space)
}
