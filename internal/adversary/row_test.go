package adversary

import (
	"math"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
)

func rowTestView(seed int64) *View {
	rng := rand.New(rand.NewSource(seed))
	n := 9
	v := &View{
		States: make([]alg.State, n),
		Faulty: []bool{false, true, false, false, true, false, true, false, false},
		Space:  12,
		Rng:    rng,
	}
	for i := range v.States {
		v.States[i] = uint64(rng.Intn(12))
	}
	v.SetBaseSeed(seed)
	return v
}

func rowSenders(v *View) []int {
	var s []int
	for i, f := range v.Faulty {
		if f {
			s = append(s, i)
		}
	}
	return s
}

// TestMessageRowMatchesMessage holds every RowMessenger to its
// contract: MessageRow must equal per-pair Message calls in ascending
// sender order, for every receiver, including the draws it takes from
// the shared rng. This is what lets the vectorized kernel substitute
// row fills for per-pair dispatch without perturbing any seed stream.
func TestMessageRowMatchesMessage(t *testing.T) {
	for name, adv := range registry() {
		rower, ok := adv.(RowMessenger)
		if !ok {
			t.Errorf("built-in adversary %q does not implement RowMessenger", name)
			continue
		}
		for round := uint64(0); round < 4; round++ {
			// Identical Views with identically seeded rngs: one serves
			// the per-pair calls, the other the row calls.
			vMsg := rowTestView(7)
			vRow := rowTestView(7)
			vMsg.Round, vRow.Round = round, round
			senders := rowSenders(vMsg)
			row := make([]alg.State, len(senders))
			for to := 0; to < len(vMsg.States); to++ {
				if vMsg.Faulty[to] {
					continue
				}
				rower.MessageRow(vRow, senders, to, row)
				for j, from := range senders {
					want := adv.Message(vMsg, from, to)
					if row[j] != want {
						t.Fatalf("%s: round %d sender %d -> receiver %d: row %d, message %d",
							name, round, from, to, row[j], want)
					}
				}
			}
		}
	}
}

// TestGreedyMessageRowMatchesMessage covers the stateful lookahead
// separately: two greedy instances over the same inner strategy and
// identically seeded views must agree row-vs-pair.
func TestGreedyMessageRowMatchesMessage(t *testing.T) {
	m, err := counter.NewMaxStep(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	gMsg, err := NewGreedy(m, Equivocate{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	gRow, err := NewGreedy(m, Equivocate{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	vMsg := rowTestView(11)
	vRow := rowTestView(11)
	vMsg.Space, vRow.Space = 6, 6
	senders := rowSenders(vMsg)
	row := make([]alg.State, len(senders))
	for round := uint64(0); round < 6; round++ {
		vMsg.Round, vRow.Round = round, round
		for to := 0; to < len(vMsg.States); to++ {
			if vMsg.Faulty[to] {
				continue
			}
			gRow.MessageRow(vRow, senders, to, row)
			for j, from := range senders {
				if want := gMsg.Message(vMsg, from, to); row[j] != want {
					t.Fatalf("round %d sender %d -> receiver %d: row %d, message %d", round, from, to, row[j], want)
				}
			}
		}
	}
}

// TestAppendCorrectStates pins the append-into variant and the
// CorrectStates wrapper over it.
func TestAppendCorrectStates(t *testing.T) {
	v := &View{
		States: []alg.State{9, 2, 7, 4, 1},
		Faulty: []bool{true, false, false, true, false},
	}
	scratch := make([]alg.State, 0, 8)
	got := v.AppendCorrectStates(scratch)
	want := []alg.State{2, 7, 1}
	if len(got) != len(want) {
		t.Fatalf("AppendCorrectStates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendCorrectStates = %v, want %v", got, want)
		}
	}
	// Appending must extend, not clobber.
	pre := []alg.State{99}
	got = v.AppendCorrectStates(pre)
	if got[0] != 99 || len(got) != 4 {
		t.Fatalf("AppendCorrectStates did not append: %v", got)
	}
	if cs := v.CorrectStates(); len(cs) != 3 || cs[0] != 2 {
		t.Fatalf("CorrectStates = %v", cs)
	}
}

// TestViewCorrectStatesCacheInvalidation: the per-round cache must
// refresh when the round advances and the states change in place —
// exactly what the simulator does between rounds.
func TestViewCorrectStatesCacheInvalidation(t *testing.T) {
	v := &View{
		States: []alg.State{1, 2, 3},
		Faulty: []bool{false, true, false},
		Space:  10,
	}
	v.Round = 0
	if s := (spread{}).Message(v, 1, 0); s != 1 {
		t.Fatalf("round 0: spread showed %d, want 1", s)
	}
	v.States[0] = 8 // simulator writes next states in place...
	v.Round = 1     // ...and advances the round
	if s := (spread{}).Message(v, 1, 0); s != 8 {
		t.Fatalf("round 1: spread showed stale cache value %d, want 8", s)
	}
}

// TestFlipMajorityCache: flip reads the majority cached with the
// per-round correct states. It must follow the states from round to
// round, and a row fill must allocate nothing, on a new round too.
func TestFlipMajorityCache(t *testing.T) {
	v := &View{
		States: []alg.State{4, 9, 4, 5, 4},
		Faulty: []bool{false, true, false, false, false},
		Space:  10,
	}
	if s := (flip{}).Message(v, 1, 0); s != 5 {
		t.Fatalf("round 0: flip showed %d, want 5", s)
	}
	v.States[0], v.States[2] = 7, 7
	v.Round = 1
	if s := (flip{}).Message(v, 1, 0); s != 1 {
		t.Fatalf("round 1: flip showed %d, want 1 (no majority: 0+1)", s)
	}
	senders := []int{1}
	row := make([]alg.State, 1)
	allocs := testing.AllocsPerRun(100, func() {
		v.Round++
		for to := range v.States {
			(flip{}).MessageRow(v, senders, to, row)
		}
	})
	if allocs != 0 {
		t.Fatalf("flip.MessageRow allocates %.0f objects per round, want 0", allocs)
	}
}

// TestAdversaryUniformHugeSpace is the adversary-side companion of the
// sim.uniformState overflow fix.
func TestAdversaryUniformHugeSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, space := range []uint64{2, math.MaxInt64, uint64(1) << 63, math.MaxUint64} {
		for i := 0; i < 1024; i++ {
			if s := uniform(rng, space); s >= space {
				t.Fatalf("space %d: drew %d out of range", space, s)
			}
		}
	}
	// Historical stream preserved below the Int63n boundary.
	a, b := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	for i := 0; i < 256; i++ {
		if got, want := uniform(a, 960), uint64(b.Int63n(960)); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

// TestSplitVoteCampsCache: splitVote reads its two camps from the
// View's per-round cache. On unanimous, two-camp and all-faulty views,
// MessageRow on one long-lived View must equal Message on a fresh View
// for every receiver, and the cache must follow the states from round
// to round.
func TestSplitVoteCampsCache(t *testing.T) {
	cases := []struct {
		name   string
		states []alg.State
		faulty []bool
		even   alg.State
		odd    alg.State
	}{
		{"unanimous", []alg.State{4, 0, 4, 4, 4}, []bool{false, true, false, false, false}, 4, 3},
		{"unanimous-zero", []alg.State{0, 0, 0, 9, 0}, []bool{false, false, false, true, false}, 0, 9},
		{"two-camp", []alg.State{5, 2, 5, 7, 1}, []bool{false, true, false, false, false}, 5, 7},
		{"all-faulty", []alg.State{3, 6, 1, 2, 8}, []bool{true, true, true, true, true}, 0, 0},
	}
	sv := splitVote{}
	long := &View{Space: 10}
	for r, tc := range cases {
		long.Round, long.States, long.Faulty = uint64(r), tc.states, tc.faulty
		senders := rowSenders(long)
		row := make([]alg.State, len(senders))
		for to := range tc.states {
			fresh := &View{States: tc.states, Faulty: tc.faulty, Space: 10}
			exp := tc.odd
			if to%2 == 0 {
				exp = tc.even
			}
			want := sv.Message(fresh, 0, to)
			if want != exp {
				t.Fatalf("%s: Message to receiver %d = %d, want %d", tc.name, to, want, exp)
			}
			sv.MessageRow(long, senders, to, row)
			for j := range row {
				if row[j] != want {
					t.Fatalf("%s: MessageRow to receiver %d slot %d = %d, Message = %d", tc.name, to, j, row[j], want)
				}
			}
		}
	}
}
