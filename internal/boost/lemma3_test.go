package boost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// TestLemma3VoteConsistency checks Lemma 3 as a direct property of the
// voting function: when every non-faulty node's block counter points at
// the same *non-faulty* leader block β with a consistent round value r
// (the lemma's precondition — "there is a non-faulty block β ∈ [m]"),
// then no matter what states the Byzantine nodes present to each
// receiver, every receiver's vote evaluates to R = r.
func TestLemma3VoteConsistency(t *testing.T) {
	b := new41(t, 960)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		beta := uint64(rng.Intn(b.M()))
		r := uint64(rng.Int63n(int64(b.Tau())))
		byz := rng.Intn(4)
		if b.BlockOf(byz) == int(beta) {
			// The leader block must be non-faulty; with single-node
			// blocks that means the Byzantine node may not be β itself.
			byz = (int(beta) + 1 + rng.Intn(3)) % 4
			if b.BlockOf(byz) == int(beta) {
				byz = (int(beta) + 1) % 4
			}
		}

		states := make([]alg.State, 4)
		for u := 0; u < 4; u++ {
			// Counter value for node u's block with pointer beta, round r:
			// y must satisfy floor(y / (2m)^i) mod m == beta.
			i := b.BlockOf(u)
			y := beta * b.pow2m[i]
			val := (y*b.tau + r) % b.blockMod[i]
			st, err := b.CraftNodeState(val, phaseking.Registers{A: 0, D: 1})
			if err != nil {
				return false
			}
			states[u] = st
		}
		// Every receiver sees the same correct states but its own
		// Byzantine entry: R must still be r at every receiver.
		for receiver := 0; receiver < 4; receiver++ {
			recv := make([]alg.State, 4)
			copy(recv, states)
			recv[byz] = uint64(rng.Int63n(int64(b.StateSpace())))
			if got := b.voteR(recv); got != r {
				t.Logf("seed %d: receiver %d computed R=%d, want %d (beta=%d byz=%d)",
					seed, receiver, got, r, beta, byz)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestLemma3IncrementsWithCounter: as the block counters advance one
// step, the voted R advances by one modulo τ (claim (b) of Lemma 3).
func TestLemma3Increments(t *testing.T) {
	b := new41(t, 960)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		beta := uint64(rng.Intn(b.M()))
		base := uint64(rng.Int63n(int64(b.Tau() - 1)))
		var rs []uint64
		for step := uint64(0); step < 2; step++ {
			states := make([]alg.State, 4)
			for u := 0; u < 4; u++ {
				i := b.BlockOf(u)
				y := beta * b.pow2m[i]
				val := (y*b.tau + base + step) % b.blockMod[i]
				st, err := b.CraftNodeState(val, phaseking.Registers{A: 0, D: 1})
				if err != nil {
					t.Fatal(err)
				}
				states[u] = st
			}
			rs = append(rs, b.voteR(states))
		}
		if rs[1] != (rs[0]+1)%b.Tau() {
			t.Fatalf("trial %d: R went %d -> %d, want +1 mod %d", trial, rs[0], rs[1], b.Tau())
		}
	}
}
