package adversary

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

func newView(states []alg.State, faulty []bool, space uint64, seed int64) *View {
	v := &View{
		States: states,
		Faulty: faulty,
		Space:  space,
		Rng:    rand.New(rand.NewSource(seed)),
	}
	v.SetBaseSeed(seed)
	return v
}

func TestRegistryComplete(t *testing.T) {
	reg := registry()
	for _, name := range []string{"silent", "random", "equivocate", "mirror", "splitvote", "spread", "flip"} {
		if _, ok := reg[name]; !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	if len(Names()) != len(reg) {
		t.Error("Names and registry disagree")
	}
}

func TestByName(t *testing.T) {
	a, err := ByName("mirror")
	if err != nil || a.Name() != "mirror" {
		t.Fatalf("ByName(mirror) = %v, %v", a, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should fail")
	}
}

func TestAllStrategiesStayInSpace(t *testing.T) {
	const space = 37
	states := []alg.State{3, 14, 15, 9, 26}
	faulty := []bool{false, false, true, false, true}
	for name, adv := range registry() {
		v := newView(states, faulty, space, 99)
		for round := uint64(0); round < 50; round++ {
			v.Round = round
			for _, from := range []int{2, 4} {
				for to := 0; to < 5; to++ {
					msg := adv.Message(v, from, to)
					if msg >= space {
						t.Errorf("%s: message %d outside space %d", name, msg, space)
					}
				}
			}
		}
	}
}

func TestSilent(t *testing.T) {
	v := newView([]alg.State{5, 6, 7}, []bool{false, false, true}, 10, 1)
	if got := (Silent{}).Message(v, 2, 0); got != 0 {
		t.Errorf("Silent = %d, want 0", got)
	}
}

func TestRandomIsConsistentPerRound(t *testing.T) {
	// A non-equivocating fault must show the same state to all receivers
	// within a round.
	v := newView([]alg.State{1, 2, 3, 4}, []bool{false, true, false, false}, 1000, 5)
	v.Round = 17
	first := (random{}).Message(v, 1, 0)
	for to := 1; to < 4; to++ {
		if got := (random{}).Message(v, 1, to); got != first {
			t.Fatalf("random equivocated: receiver %d saw %d, receiver 0 saw %d", to, got, first)
		}
	}
	v.Round = 18
	if second := (random{}).Message(v, 1, 0); second == first {
		// Not strictly impossible, but with space 1000 a collision across
		// rounds signals a broken derivation more often than luck.
		t.Logf("warning: consecutive rounds produced identical random state %d", first)
	}
}

func TestMirrorCopiesLowestCorrect(t *testing.T) {
	v := newView([]alg.State{11, 22, 33}, []bool{true, false, true}, 100, 2)
	if got := (mirror{}).Message(v, 0, 2); got != 22 {
		t.Errorf("mirror = %d, want 22", got)
	}
}

func TestSplitVoteSplitsDistinctStates(t *testing.T) {
	v := newView([]alg.State{7, 9, 0, 7}, []bool{false, false, true, false}, 100, 3)
	even := (splitVote{}).Message(v, 2, 0)
	odd := (splitVote{}).Message(v, 2, 1)
	if even != 7 || odd != 9 {
		t.Errorf("splitVote = (%d,%d), want (7,9)", even, odd)
	}
}

func TestSplitVotePerturbsUnanimity(t *testing.T) {
	v := newView([]alg.State{4, 4, 0, 4}, []bool{false, false, true, false}, 100, 4)
	even := (splitVote{}).Message(v, 2, 0)
	odd := (splitVote{}).Message(v, 2, 1)
	if even != 4 {
		t.Errorf("even receiver should see the unanimous state, got %d", even)
	}
	if odd != 3 {
		t.Errorf("odd receiver should see a perturbed state 3, got %d", odd)
	}
}

func TestSpreadShowsDifferentCorrectStates(t *testing.T) {
	v := newView([]alg.State{10, 20, 0, 30}, []bool{false, false, true, false}, 100, 5)
	if got := (spread{}).Message(v, 2, 0); got != 10 {
		t.Errorf("spread to receiver 0 = %d, want 10", got)
	}
	if got := (spread{}).Message(v, 2, 1); got != 20 {
		t.Errorf("spread to receiver 1 = %d, want 20", got)
	}
	if got := (spread{}).Message(v, 2, 3); got != 10 {
		t.Errorf("spread to receiver 3 = %d, want 10 (wraps mod 3 correct)", got)
	}
}

func TestFlipComplementsMajority(t *testing.T) {
	v := newView([]alg.State{1, 1, 1, 0}, []bool{false, false, false, true}, 2, 6)
	if got := (flip{}).Message(v, 3, 0); got != 0 {
		t.Errorf("flip = %d, want 0 (complement of majority 1)", got)
	}
}

func TestCorrectStates(t *testing.T) {
	v := newView([]alg.State{1, 2, 3, 4}, []bool{true, false, true, false}, 10, 7)
	got := v.CorrectStates()
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("CorrectStates = %v, want [2 4]", got)
	}
}

// TestSnapshottableMarkers pins the fast-forward eligibility contract:
// every built-in strategy implements snapshottable, the pure
// state-function strategies declare period 1, the randomness- or
// round-driven ones declare 0 (stateless but never periodic), and the
// stateful greedy lookahead opts out entirely.
func TestSnapshottableMarkers(t *testing.T) {
	wantPeriod := map[string]uint64{
		"silent":     1,
		"mirror":     1,
		"splitvote":  1,
		"spread":     1,
		"flip":       1,
		"random":     0,
		"equivocate": 0,
	}
	for name, a := range registry() {
		s, ok := a.(snapshottable)
		if !ok {
			t.Errorf("built-in %q does not implement snapshottable", name)
			continue
		}
		want, listed := wantPeriod[name]
		if !listed {
			t.Errorf("strategy %q missing from the expected-period table", name)
			continue
		}
		if got := s.SnapshotPeriod(); got != want {
			t.Errorf("%q: SnapshotPeriod = %d, want %d", name, got, want)
		}
		p, eligible := SnapshotPeriodOf(a)
		if eligible != (want >= 1) || (eligible && p != want) {
			t.Errorf("%q: SnapshotPeriodOf = (%d, %v), want (%d, %v)", name, p, eligible, want, want >= 1)
		}
	}
	// The greedy lookahead caches one round's assignment across calls:
	// it must not advertise itself as snapshottable.
	g, err := NewGreedy(stubDetAlg{}, Silent{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := Adversary(g).(snapshottable); ok {
		t.Error("greedy must not implement snapshottable")
	}
	if _, eligible := SnapshotPeriodOf(g); eligible {
		t.Error("SnapshotPeriodOf(greedy) must report ineligible")
	}
}

// stubDetAlg is a minimal deterministic algorithm for constructing the
// greedy lookahead in marker tests.
type stubDetAlg struct{}

func (stubDetAlg) N() int             { return 2 }
func (stubDetAlg) F() int             { return 0 }
func (stubDetAlg) C() int             { return 2 }
func (stubDetAlg) StateSpace() uint64 { return 2 }
func (stubDetAlg) Step(_ int, recv []alg.State, _ *rand.Rand) alg.State {
	return (recv[0] + 1) % 2
}
func (stubDetAlg) Output(_ int, s alg.State) int { return int(s) }
func (stubDetAlg) Deterministic() bool           { return true }
