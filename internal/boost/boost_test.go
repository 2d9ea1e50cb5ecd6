package boost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/phaseking"
	"github.com/synchcount/synchcount/internal/sim"
)

// splitVote is the registry's "splitvote" strategy; the adversary
// package's own tests pin the name.
var splitVote, _ = adversary.ByName("splitvote")

// newBase41 returns the base counter for the A(4,1) construction of
// Corollary 1: the trivial 1-node counter with modulus 3(F+2)(2m)^k =
// 3·3·4^4 = 2304 for k = 4, F = 1.
func newBase41(t *testing.T) alg.Algorithm {
	t.Helper()
	base, err := counter.NewTrivial(2304)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// new41 builds A(4, 1, C): four blocks of one trivial node.
func new41(t *testing.T, c int) *Counter {
	t.Helper()
	b, err := New(newBase41(t), Params{K: 4, F: 1, C: c})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewValidation(t *testing.T) {
	base := newBase41(t)
	tests := []struct {
		name string
		base alg.Algorithm
		p    Params
	}{
		{"nil base", nil, Params{K: 4, F: 1, C: 8}},
		{"k too small", base, Params{K: 2, F: 1, C: 8}},
		{"C too small", base, Params{K: 4, F: 1, C: 1}},
		{"negative F", base, Params{K: 4, F: -1, C: 8}},
		{"F too large for blocks", base, Params{K: 4, F: 2, C: 8}},
		{"F violates N/3", base, Params{K: 3, F: 1, C: 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.base, tt.p); err == nil {
				t.Errorf("New(%+v) should fail", tt.p)
			}
		})
	}
}

func TestNewRejectsBadModulus(t *testing.T) {
	// Base modulus must be a multiple of 3(F+2)(2m)^k = 2304.
	base, err := counter.NewTrivial(2300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(base, Params{K: 4, F: 1, C: 8}); err == nil {
		t.Fatal("modulus 2300 is not a multiple of 2304; New should fail")
	}
	// A larger multiple is fine.
	base, err = counter.NewTrivial(2 * 2304)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(base, Params{K: 4, F: 1, C: 8}); err != nil {
		t.Fatalf("multiple of the overhead must be accepted: %v", err)
	}
}

func TestParameters(t *testing.T) {
	b := new41(t, 960)
	if b.N() != 4 || b.F() != 1 || b.C() != 960 {
		t.Fatalf("N,F,C = %d,%d,%d want 4,1,960", b.N(), b.F(), b.C())
	}
	if b.K() != 4 || b.M() != 2 {
		t.Fatalf("K,M = %d,%d want 4,2", b.K(), b.M())
	}
	if b.Tau() != 9 {
		t.Fatalf("Tau = %d, want 9 (3(F+2))", b.Tau())
	}
	if b.RoundOverhead() != 2304 {
		t.Fatalf("RoundOverhead = %d, want 2304", b.RoundOverhead())
	}
	if !b.Deterministic() {
		t.Fatal("boost of a deterministic base must be deterministic")
	}
	if got := b.StabilisationBound(); got != 2304 {
		t.Fatalf("StabilisationBound = %d, want 2304", got)
	}
}

// TestSpaceComplexity verifies the Theorem 1 space accounting:
// |X_B| = |X_A| · (C+1) · 2 exactly, so S(B) <= S(A) + ceil(log(C+1)) + 1.
func TestSpaceComplexity(t *testing.T) {
	base := newBase41(t)
	for _, c := range []int{2, 10, 960} {
		b, err := New(base, Params{K: 4, F: 1, C: c})
		if err != nil {
			t.Fatal(err)
		}
		want := base.StateSpace() * uint64(c+1) * 2
		if b.StateSpace() != want {
			t.Fatalf("C=%d: StateSpace = %d, want %d", c, b.StateSpace(), want)
		}
		paperBits := alg.StateBits(base) + codec41Bits(uint64(c+1)) + 1
		if got := alg.StateBits(b); got > paperBits {
			t.Fatalf("C=%d: S(B) = %d exceeds paper bound %d", c, got, paperBits)
		}
	}
}

func codec41Bits(space uint64) int {
	bits := 0
	for v := space - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

func TestBlockGeometry(t *testing.T) {
	b := new41(t, 8)
	for v := 0; v < 4; v++ {
		if b.BlockOf(v) != v || b.IndexInBlock(v) != 0 {
			t.Fatalf("node %d: block %d index %d (blocks of one node)", v, b.BlockOf(v), b.IndexInBlock(v))
		}
	}
	// Block moduli: c_i = τ(2m)^{i+1} = 9·4^{i+1}.
	want := []uint64{36, 144, 576, 2304}
	for i, w := range want {
		if got := b.BlockMod(i); got != w {
			t.Fatalf("BlockMod(%d) = %d, want %d", i, got, w)
		}
	}
}

// TestLeaderPointerLemma1 checks the Lemma 1 schedule: once a block's
// counter counts correctly, within any window of c_i rounds its pointer
// b[i,j] visits every β ∈ [m] for at least c_{i-1} consecutive rounds.
func TestLeaderPointerLemma1(t *testing.T) {
	b := new41(t, 8)
	base := b.Base()
	for i := 0; i < b.K(); i++ {
		ci := b.BlockMod(i)
		prev := b.Tau() // c_{-1} = τ
		if i > 0 {
			prev = b.BlockMod(i - 1)
		}
		// Walk the counter for two full cycles; record maximal runs.
		runs := make(map[uint64]uint64) // pointer -> longest run
		var curPtr, curLen uint64
		first := true
		for val := uint64(0); val < 2*ci; val++ {
			state := val % base.StateSpace()
			// Pointer as decoded for a node of block i holding counter
			// value val.
			_, _, ptr := b.Leader(i*1, state)
			_ = state
			if first || ptr != curPtr {
				if !first && runs[curPtr] < curLen {
					runs[curPtr] = curLen
				}
				curPtr, curLen, first = ptr, 1, false
			} else {
				curLen++
			}
		}
		if runs[curPtr] < curLen {
			runs[curPtr] = curLen
		}
		for beta := uint64(0); beta < uint64(b.M()); beta++ {
			if runs[beta] < prev {
				t.Fatalf("block %d: pointer %d max run %d < c_{i-1} = %d", i, beta, runs[beta], prev)
			}
		}
	}
}

// TestLeaderDecodeMatchesDefinition cross-checks Leader against the
// paper's formulas on random counter values.
func TestLeaderDecodeMatchesDefinition(t *testing.T) {
	b := new41(t, 8)
	rng := rand.New(rand.NewSource(3))
	tau := b.Tau()
	for trial := 0; trial < 1000; trial++ {
		u := rng.Intn(4)
		i := b.BlockOf(u)
		val := uint64(rng.Int63n(2304))
		r, y, ptr := b.Leader(u, val) // trivial base: state == counter value
		ci := b.BlockMod(i)
		wantVal := val % ci
		if r != wantVal%tau || y != wantVal/tau {
			t.Fatalf("val %d block %d: (r,y) = (%d,%d), want (%d,%d)",
				val, i, r, y, wantVal%tau, wantVal/tau)
		}
		pow := uint64(1)
		for p := 0; p < i; p++ {
			pow *= 4
		}
		if want := (y / pow) % 2; ptr != want {
			t.Fatalf("val %d block %d: ptr = %d, want %d", val, i, ptr, want)
		}
	}
}

// TestAgreementPersists is the boosted-counter analogue of Lemma 5: when
// all correct nodes already agree on (a = x, d = 1), one Step under
// arbitrary Byzantine inputs and arbitrary base states keeps them in
// agreement with a incremented.
func TestAgreementPersists(t *testing.T) {
	b := new41(t, 960)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := uint64(rng.Int63n(960))
		byzNode := rng.Intn(4)
		states := make([]alg.State, 4)
		for v := 0; v < 4; v++ {
			st, err := b.Encode(uint64(rng.Int63n(2304)), phaseking.Registers{A: x, D: 1})
			if err != nil {
				return false
			}
			states[v] = st
		}
		for v := 0; v < 4; v++ {
			if v == byzNode {
				continue
			}
			recv := make([]alg.State, 4)
			copy(recv, states)
			recv[byzNode] = uint64(rng.Int63n(int64(b.StateSpace())))
			next := b.Step(v, recv, rng)
			if got := b.Output(v, next); got != int((x+1)%960) {
				return false
			}
			if regs := b.Registers(next); regs.D != 1 || regs.A != (x+1)%960 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestStabilisesWithinBound runs the full A(4,1) construction against
// every adversary from every random initial configuration and checks the
// Theorem 1 stabilisation-time bound T(B) <= T(A) + 3(F+2)(2m)^k = 2304.
func TestStabilisesWithinBound(t *testing.T) {
	b := new41(t, 960)
	bound := b.StabilisationBound()
	for _, name := range adversary.Names() {
		adv, err := adversary.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 3; seed++ {
				faulty := int(seed % 4)
				res, err := sim.Run(sim.Config{
					Alg:       b,
					Faulty:    []int{faulty},
					Adv:       adv,
					Seed:      seed*31 + 7,
					MaxRounds: bound + 400,
					Window:    200,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Stabilised {
					t.Fatalf("seed %d faulty %d: did not stabilise within %d rounds", seed, faulty, bound+400)
				}
				if res.StabilisationTime > bound {
					t.Fatalf("seed %d faulty %d: T = %d exceeds bound %d", seed, faulty, res.StabilisationTime, bound)
				}
			}
		})
	}
}

// TestStabilisesWithoutFaults checks the fault-free fast path.
func TestStabilisesWithoutFaults(t *testing.T) {
	b := new41(t, 8)
	res, err := sim.Run(sim.Config{Alg: b, Seed: 5, MaxRounds: 3000, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Fatal("fault-free run did not stabilise")
	}
}

// TestCountsModC checks that the post-stabilisation outputs actually
// cycle through all of [C].
func TestCountsModC(t *testing.T) {
	b := new41(t, 8)
	var outs []int
	_, err := sim.RunFull(sim.Config{
		Alg:       b,
		Faulty:    []int{2},
		Adv:       splitVote,
		Seed:      11,
		MaxRounds: 2800,
		Window:    64,
		OnRound: func(round uint64, _ []alg.State, outputs []int) {
			outs = append(outs, outputs[0])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The tail of the trace must walk 0,1,...,7,0,1,... in order.
	tail := outs[len(outs)-17:]
	for i := 1; i < len(tail); i++ {
		if tail[i] != (tail[i-1]+1)%8 {
			t.Fatalf("tail not counting mod 8: %v", tail)
		}
	}
	seen := make(map[int]bool)
	for _, o := range tail {
		seen[o] = true
	}
	if len(seen) != 8 {
		t.Fatalf("tail covers %d values, want all 8: %v", len(seen), tail)
	}
}

// TestOutputMapsInfinityToZero: the output function must land in [C]
// even from the reset state.
func TestOutputMapsInfinityToZero(t *testing.T) {
	b := new41(t, 8)
	st, err := b.Encode(0, phaseking.Registers{A: phaseking.Infinity, D: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Output(0, st); got != 0 {
		t.Fatalf("Output(∞) = %d, want 0", got)
	}
}

// TestEncodeRejectsBadBaseState guards the introspection API.
func TestEncodeRejectsBadBaseState(t *testing.T) {
	b := new41(t, 8)
	if _, err := b.Encode(99999, phaseking.Registers{}); err == nil {
		t.Fatal("Encode with out-of-space base state should fail")
	}
}

// TestBoostOfMaxStepBase exercises a base with n > 1 nodes per block:
// k = 3 blocks of a 4-node fault-free counter, F = 0 (the construction
// tolerates no extra faults but must still stabilise).
func TestBoostOfMaxStepBase(t *testing.T) {
	// Overhead for k=3, F=0: 3·2·(2·2)^3 = 384.
	base, err := counter.NewMaxStep(4, 384)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(base, Params{K: 3, F: 0, C: 6})
	if err != nil {
		t.Fatal(err)
	}
	if b.N() != 12 {
		t.Fatalf("N = %d, want 12", b.N())
	}
	res, err := sim.Run(sim.Config{Alg: b, Seed: 9, MaxRounds: b.StabilisationBound() + 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stabilised {
		t.Fatal("did not stabilise")
	}
	if res.StabilisationTime > b.StabilisationBound() {
		t.Fatalf("T = %d exceeds bound %d", res.StabilisationTime, b.StabilisationBound())
	}
}
