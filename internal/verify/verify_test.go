package verify

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
)

func TestFaultSets(t *testing.T) {
	fs := faultSets(4, 1)
	// {} + 4 singletons.
	if len(fs) != 5 {
		t.Fatalf("faultSets(4,1): %d sets, want 5", len(fs))
	}
	fs = faultSets(4, 2)
	// {} + 4 + C(4,2)=6.
	if len(fs) != 11 {
		t.Fatalf("faultSets(4,2): %d sets, want 11", len(fs))
	}
	fs = faultSets(3, 0)
	if len(fs) != 1 || len(fs[0]) != 0 {
		t.Fatalf("faultSets(3,0) = %v, want [[]]", fs)
	}
}

func TestTrivialIsVerified(t *testing.T) {
	triv, _ := counter.NewTrivial(5)
	res, err := Check(triv, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("trivial counter rejected")
	}
	if res.WorstTime != 0 {
		t.Fatalf("WorstTime = %d, want 0", res.WorstTime)
	}
	if res.ConfigsExplored != 5 {
		t.Fatalf("ConfigsExplored = %d, want 5", res.ConfigsExplored)
	}
}

func TestMaxStepIsVerified(t *testing.T) {
	m, _ := counter.NewMaxStep(3, 4)
	res, err := Check(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("MaxStep rejected")
	}
	if res.WorstTime != 1 {
		t.Fatalf("WorstTime = %d, want 1 (agreement after one round)", res.WorstTime)
	}
}

// stuck never increments.
type stuck struct{}

func (stuck) N() int                                      { return 2 }
func (stuck) F() int                                      { return 0 }
func (stuck) C() int                                      { return 3 }
func (stuck) StateSpace() uint64                          { return 3 }
func (stuck) Step(int, []alg.State, *rand.Rand) alg.State { return 1 }
func (stuck) Output(_ int, s alg.State) int               { return int(s % 3) }
func (stuck) Deterministic() bool                         { return true }

func TestStuckIsRejectedWithCycle(t *testing.T) {
	res, err := Check(stuck{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("stuck algorithm accepted")
	}
	if res.Counterexample == nil || len(res.Counterexample.Cycle) == 0 {
		t.Fatal("no counterexample produced")
	}
	// The cycle must consist of the self-looping configuration (1,1).
	for _, cfg := range res.Counterexample.Cycle {
		for _, s := range cfg {
			if s != 1 {
				t.Fatalf("unexpected cycle %v", res.Counterexample.Cycle)
			}
		}
	}
}

// naiveMajority is the textbook broken 2-counter for n = 4, f = 1: adopt
// (majority value + 1), breaking 2-2 ties toward 0. Fault-free, every
// configuration becomes unanimous after one round, but one equivocating
// Byzantine node can pin a correct node on each side of the 3-vote
// threshold and keep the correct nodes disagreeing forever.
type naiveMajority struct{}

func (naiveMajority) N() int             { return 4 }
func (naiveMajority) F() int             { return 1 }
func (naiveMajority) C() int             { return 2 }
func (naiveMajority) StateSpace() uint64 { return 2 }
func (naiveMajority) Step(node int, recv []alg.State, _ *rand.Rand) alg.State {
	zeros := 0
	for _, s := range recv {
		if s%2 == 0 {
			zeros++
		}
	}
	if zeros >= 2 {
		return 1 // majority (or tie-break) value 0, incremented
	}
	return 0 // majority value 1, incremented
}
func (naiveMajority) Output(_ int, s alg.State) int { return int(s % 2) }
func (naiveMajority) Deterministic() bool           { return true }

func TestNaiveMajorityIsRejected(t *testing.T) {
	res, err := Check(naiveMajority{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("the naive majority counter must be rejected at f = 1")
	}
	if len(res.Counterexample.FaultSet) != 1 {
		t.Fatalf("counterexample fault set %v, want one faulty node", res.Counterexample.FaultSet)
	}
	if len(res.Counterexample.Cycle) < 2 {
		t.Fatalf("cycle too short: %v", res.Counterexample.Cycle)
	}
}

func TestNaiveMajorityPassesFaultFree(t *testing.T) {
	// The same algorithm is fine when no fault occurs: restricting to the
	// empty fault set must succeed.
	res, err := checkFaultSet(naiveMajority{}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("naive majority must verify under zero faults")
	}
	if res.WorstTime == 0 {
		t.Fatal("expected non-zero stabilisation time from disagreeing configurations")
	}
}

func TestRejectsRandomized(t *testing.T) {
	r, _ := counter.NewRandomizedAgree(4, 1)
	if _, err := Check(r, Options{}); err == nil {
		t.Fatal("randomised algorithms must be rejected")
	}
}

func TestLimits(t *testing.T) {
	m, _ := counter.NewMaxStep(6, 8)
	if _, err := Check(m, Options{MaxConfigs: 16}); err == nil {
		t.Fatal("config limit not enforced")
	}
}

func TestCheckFaultSetValidation(t *testing.T) {
	triv, _ := counter.NewTrivial(4)
	if _, err := checkFaultSet(triv, []int{5}, Options{}); err == nil {
		t.Fatal("out-of-range fault node accepted")
	}
	if _, err := checkFaultSet(triv, []int{0}, Options{}); err == nil {
		t.Fatal("all-faulty network accepted")
	}
}

// TestWorstTimeMatchesSimulation: the checker's exact worst case must
// dominate any simulated run of the same algorithm.
func TestWorstTimeMatchesSimulation(t *testing.T) {
	m, _ := counter.NewMaxStep(4, 6)
	res, err := Check(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("MaxStep rejected")
	}
	// Simulate from every single initial configuration... the state
	// space is 6^4 = 1296, small enough to brute-force the fault-free
	// transition directly.
	worst := uint64(0)
	for cfg := 0; cfg < 1296; cfg++ {
		states := []alg.State{
			uint64(cfg % 6), uint64(cfg / 6 % 6), uint64(cfg / 36 % 6), uint64(cfg / 216 % 6),
		}
		steps := uint64(0)
		for !allEqual(states) {
			next := make([]alg.State, 4)
			for i := range next {
				next[i] = m.Step(i, states, nil)
			}
			states = next
			steps++
			if steps > 10 {
				t.Fatal("runaway")
			}
		}
		if steps > worst {
			worst = steps
		}
	}
	if res.WorstTime != worst {
		t.Fatalf("checker WorstTime = %d, brute force = %d", res.WorstTime, worst)
	}
}

func allEqual(states []alg.State) bool {
	for _, s := range states[1:] {
		if s != states[0] {
			return false
		}
	}
	return true
}
