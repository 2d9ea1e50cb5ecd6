package reduction

import (
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/boost"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/phaseking"
	"github.com/synchcount/synchcount/internal/recursion"
	"github.com/synchcount/synchcount/internal/sim"
)

// splitVote is the registry's "splitvote" strategy; the adversary
// package's own tests pin the name.
var splitVote, _ = adversary.ByName("splitvote")

// newClock41 builds the A(4,1) counter with modulus 90 (a multiple of
// the epoch length τ = 3(1+2) = 9).
func newClock41(t *testing.T) *boost.Counter {
	t.Helper()
	p, err := recursion.Corollary1(1, 90)
	if err != nil {
		t.Fatal(err)
	}
	top, _, _, err := recursion.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func constInput(v uint64) InputFunc {
	return func(int, uint64) uint64 { return v }
}

func TestNewValidation(t *testing.T) {
	clock := newClock41(t)
	if _, err := New(nil, 4, constInput(0)); err == nil {
		t.Error("nil clock should fail")
	}
	if _, err := New(clock, 4, nil); err == nil {
		t.Error("nil inputs should fail")
	}
	if _, err := New(clock, 1, constInput(0)); err == nil {
		t.Error("domain < 2 should fail")
	}
	// Modulus not a multiple of τ.
	badClock, err := counter.NewMaxStep(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(badClock, 4, constInput(0)); err == nil {
		t.Error("modulus 10 with τ = 6 should fail")
	}
	// A single-node clock has too few king candidates.
	triv, err := counter.NewTrivial(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(triv, 4, constInput(0)); err == nil {
		t.Error("1-node clock should fail (needs f+2 kings)")
	}
}

func TestParameters(t *testing.T) {
	clock := newClock41(t)
	m, err := New(clock, 5, constInput(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != 4 || m.F() != 1 || m.C() != 5 {
		t.Fatalf("N,F,C = %d,%d,%d", m.N(), m.F(), m.C())
	}
	if m.tau != 9 {
		t.Fatalf("tau = %d, want 9", m.tau)
	}
	if !m.Deterministic() {
		t.Error("machine over a deterministic clock must be deterministic")
	}
}

// epochAudit runs the machine under an adversary and collects, for every
// epoch boundary after the clock's stabilisation bound, the decisions of
// correct nodes and the epoch the decision belongs to.
type epochAudit struct {
	round     uint64
	epoch     uint64
	decisions []int
}

func runAudit(t *testing.T, m *Machine, faulty []int, adv adversary.Adversary, seed int64, horizon uint64, after uint64) []epochAudit {
	t.Helper()
	isFaulty := make(map[int]bool, len(faulty))
	for _, u := range faulty {
		isFaulty[u] = true
	}
	var audits []epochAudit
	_, err := sim.RunFull(sim.Config{
		Alg:       m,
		Faulty:    faulty,
		Adv:       adv,
		Seed:      seed,
		MaxRounds: horizon,
		Window:    1, // counting detection does not apply to decisions
		OnRound: func(round uint64, states []alg.State, outputs []int) {
			if round < after {
				return
			}
			// Use node 0's clock (correct in all our fault patterns) to
			// find epoch boundaries.
			ref := 0
			for isFaulty[ref] {
				ref++
			}
			val := uint64(m.ClockValue(ref, states[ref]))
			if val%m.tau != 0 || val/m.tau == 0 {
				return
			}
			a := epochAudit{round: round, epoch: val/m.tau - 1}
			for u, out := range outputs {
				if !isFaulty[u] {
					a.decisions = append(a.decisions, out)
				}
			}
			audits = append(audits, a)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return audits
}

func TestRepeatedConsensusValidity(t *testing.T) {
	clock := newClock41(t)
	bound := clock.StabilisationBound()
	m, err := New(clock, 5, constInput(3))
	if err != nil {
		t.Fatal(err)
	}
	audits := runAudit(t, m, []int{2}, adversary.Equivocate{}, 11, bound+300, bound+20)
	if len(audits) < 10 {
		t.Fatalf("only %d post-stabilisation epochs observed", len(audits))
	}
	for _, a := range audits {
		for _, d := range a.decisions {
			if d != 3 {
				t.Fatalf("round %d epoch %d: decision %v, want all 3 (validity)", a.round, a.epoch, a.decisions)
			}
		}
	}
}

func TestRepeatedConsensusAgreementWithMixedInputs(t *testing.T) {
	clock := newClock41(t)
	bound := clock.StabilisationBound()
	// Even epochs: unanimous input (epoch mod 5); odd epochs: inputs
	// differ per node.
	inputs := func(node int, epoch uint64) uint64 {
		if epoch%2 == 0 {
			return epoch / 2 % 5
		}
		return uint64(node) % 5
	}
	m, err := New(clock, 5, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, advName := range []string{"equivocate", "splitvote", "flip"} {
		adv, err := adversary.ByName(advName)
		if err != nil {
			t.Fatal(err)
		}
		audits := runAudit(t, m, []int{1}, adv, 13, bound+300, bound+20)
		if len(audits) < 10 {
			t.Fatalf("%s: only %d epochs observed", advName, len(audits))
		}
		for _, a := range audits {
			// Agreement in every epoch.
			for _, d := range a.decisions[1:] {
				if d != a.decisions[0] {
					t.Fatalf("%s: epoch %d: decisions disagree: %v", advName, a.epoch, a.decisions)
				}
			}
			if a.decisions[0] == noDecision {
				t.Fatalf("%s: epoch %d: no decision after stabilisation", advName, a.epoch)
			}
			// Validity in the unanimous epochs.
			if a.epoch%2 == 0 {
				want := int(a.epoch / 2 % 5)
				if a.decisions[0] != want {
					t.Fatalf("%s: epoch %d: decision %d, want unanimous input %d",
						advName, a.epoch, a.decisions[0], want)
				}
			}
		}
	}
}

// TestBinaryConsensus is the paper's headline connection: counting mod 2
// and binary consensus. V = 2 with a 2-counter-compatible clock.
func TestBinaryConsensus(t *testing.T) {
	clock := newClock41(t)
	bound := clock.StabilisationBound()
	inputs := func(node int, epoch uint64) uint64 {
		// Rotate which single node dissents; majority input is epoch%2.
		if uint64(node) == epoch%4 {
			return 1 - epoch%2
		}
		return epoch % 2
	}
	m, err := New(clock, 2, inputs)
	if err != nil {
		t.Fatal(err)
	}
	audits := runAudit(t, m, []int{3}, splitVote, 17, bound+300, bound+20)
	if len(audits) < 10 {
		t.Fatal("too few epochs")
	}
	for _, a := range audits {
		for _, d := range a.decisions[1:] {
			if d != a.decisions[0] {
				t.Fatalf("epoch %d: binary consensus violated: %v", a.epoch, a.decisions)
			}
		}
	}
}

// TestDecisionBeforeStabilisationIsUnreliable documents the contract:
// pre-stabilisation epochs may produce garbage, including ⊥.
func TestDecisionOutputEncoding(t *testing.T) {
	clock := newClock41(t)
	m, err := New(clock, 4, constInput(2))
	if err != nil {
		t.Fatal(err)
	}
	// A state whose decision field is V encodes ⊥.
	s := m.cdc.MustPack(0, 0, 0, 4)
	if m.Output(0, s) != noDecision {
		t.Fatal("decision field V must decode to noDecision")
	}
	s = m.cdc.MustPack(0, 0, 0, 3)
	if m.Output(0, s) != 3 {
		t.Fatal("decision field 3 must decode to 3")
	}
}

func TestClockValue(t *testing.T) {
	clock := newClock41(t)
	m, err := New(clock, 4, constInput(0))
	if err != nil {
		t.Fatal(err)
	}
	// Craft a clock state with a known value via the boosted counter.
	st, err := clock.CraftNodeState(0, phaseking.Registers{A: 31, D: 1})
	if err != nil {
		t.Fatal(err)
	}
	packed := m.cdc.MustPack(st, 0, 0, 0)
	if got := m.ClockValue(0, packed); got != 31 {
		t.Fatalf("ClockValue = %d, want 31", got)
	}
}
