// Package boost implements the paper's main technical contribution:
// Theorem 1, the resilience-boosting construction.
//
// Given a synchronous c-counter A ∈ A(n, f, c), it constructs
// B ∈ A(N, F, C) for N = kn nodes (k ≥ 3 blocks of n nodes each),
// resilience F < (f+1)·⌈k/2⌉, and any counter size C > 1, provided c is a
// multiple of 3(F+2)(2m)^k where m = ⌈k/2⌉. The new algorithm satisfies
//
//	T(B) ≤ T(A) + 3(F+2)(2m)^k
//	S(B) = S(A) + ⌈log(C+1)⌉ + 1.
//
// Mechanics (Section 3 of the paper): each block i runs its own copy A_i
// of the base counter, read modulo c_i = τ(2m)^{i+1} with τ = 3(F+2). The
// counter value is interpreted as a pair (r, y) = (val mod τ, val div τ);
// the block's current "leader pointer" is b = ⌊y/(2m)^i⌋ mod m. Because
// block i cycles through leader pointers a factor 2m faster than block
// i+1, all stabilised blocks eventually point to the same leader block
// β ∈ [m] simultaneously for τ consecutive rounds (Lemmas 1–2). A
// three-level majority vote (within blocks, across blocks, then on the
// leader's round counter) extracts a common round counter R that all
// correct nodes agree on for τ rounds (Lemma 3), which is long enough to
// drive one honest-king sweep of the phase king protocol (Lemmas 4–5) and
// thereby establish — and keep forever — agreement on the output
// C-counter.
package boost

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// Params are the free parameters of Theorem 1.
type Params struct {
	// K is the number of blocks k ≥ 3.
	K int
	// F is the resilience of the constructed counter; it must satisfy
	// F < (f+1)·⌈K/2⌉ and F < N/3.
	F int
	// C is the output counter modulus C > 1.
	C int
}

// Counter is the boosted algorithm B ∈ A(N, F, C). It implements
// alg.Algorithm and may itself serve as the base of a further
// application of Theorem 1 (see internal/recursion).
type Counter struct {
	base alg.Algorithm

	k, m    int
	n, nTot int // base nodes per block, total nodes N = k*n
	fBoost  int // constructed resilience F
	cOut    uint64

	tau      uint64   // τ = 3(F+2)
	pow2m    []uint64 // (2m)^i for i in [0..k]
	blockMod []uint64 // c_i = τ(2m)^{i+1}
	bound    uint64   // 3(F+2)(2m)^k

	cdc    *codec.Codec // fields: base state, a ∈ [C+1] (C = ∞), d ∈ {0,1}
	pkCfg  phaseking.Config
	detBit bool

	// pool recycles the batch-stepping working set (see batch.go)
	// across rounds and concurrent campaign trials.
	pool sync.Pool
}

var _ alg.Algorithm = (*Counter)(nil)
var _ alg.Deterministic = (*Counter)(nil)

// New applies Theorem 1 to the given base counter.
func New(base alg.Algorithm, p Params) (*Counter, error) {
	if base == nil {
		return nil, errors.New("boost: nil base algorithm")
	}
	if p.K < 3 {
		return nil, fmt.Errorf("boost: need k >= 3 blocks, got %d", p.K)
	}
	if p.C < 2 {
		return nil, fmt.Errorf("boost: need counter size C > 1, got %d", p.C)
	}
	n, f := base.N(), base.F()
	k := p.K
	m := (k + 1) / 2
	bigN := k * n
	if p.F < 0 || p.F >= (f+1)*m {
		return nil, fmt.Errorf("boost: resilience F = %d violates F < (f+1)*ceil(k/2) = %d", p.F, (f+1)*m)
	}
	if 3*p.F >= bigN {
		// The paper notes F < (f+1)m "also ensures" F < N/3 in its
		// parameter regime; for degenerate inputs (tiny n) it does not,
		// and phase king genuinely needs F < N/3, so we check.
		return nil, fmt.Errorf("boost: phase king requires F < N/3, got F = %d, N = %d", p.F, bigN)
	}
	if p.F+2 > bigN {
		return nil, fmt.Errorf("boost: need F+2 <= N king candidates, got F = %d, N = %d", p.F, bigN)
	}

	tau := 3 * uint64(p.F+2)
	pow, err := codec.PowSpace(uint64(2*m), k)
	if err != nil {
		return nil, fmt.Errorf("boost: (2m)^k overflows: %w", err)
	}
	bound := tau * pow
	if bound/tau != pow {
		return nil, fmt.Errorf("boost: stabilisation bound overflows (tau=%d, (2m)^k=%d)", tau, pow)
	}
	c := uint64(base.C())
	if c%bound != 0 {
		return nil, fmt.Errorf("boost: base modulus c = %d must be a multiple of 3(F+2)(2m)^k = %d", c, bound)
	}

	cdc, err := codec.New(base.StateSpace(), uint64(p.C)+1, 2)
	if err != nil {
		return nil, fmt.Errorf("boost: state space: %w", err)
	}

	b := &Counter{
		base:   base,
		k:      k,
		m:      m,
		n:      n,
		nTot:   bigN,
		fBoost: p.F,
		cOut:   uint64(p.C),
		tau:    tau,
		bound:  bound,
		cdc:    cdc,
		pkCfg: phaseking.Config{
			C: uint64(p.C),
			Thresholds: phaseking.Thresholds{
				Strong: bigN - p.F,
				Weak:   p.F,
			},
		},
		detBit: alg.IsDeterministic(base),
	}
	b.pow2m = make([]uint64, k+1)
	b.pow2m[0] = 1
	for i := 1; i <= k; i++ {
		b.pow2m[i] = b.pow2m[i-1] * uint64(2*m)
	}
	b.blockMod = make([]uint64, k)
	for i := 0; i < k; i++ {
		b.blockMod[i] = tau * b.pow2m[i+1]
	}
	if err := b.pkCfg.Validate(); err != nil {
		return nil, fmt.Errorf("boost: %w", err)
	}
	return b, nil
}

// N implements alg.Algorithm.
func (b *Counter) N() int { return b.nTot }

// F implements alg.Algorithm.
func (b *Counter) F() int { return b.fBoost }

// C implements alg.Algorithm.
func (b *Counter) C() int { return int(b.cOut) }

// StateSpace implements alg.Algorithm.
func (b *Counter) StateSpace() uint64 { return b.cdc.Space() }

// Deterministic implements alg.Deterministic: the construction is
// deterministic exactly when the base is.
func (b *Counter) Deterministic() bool { return b.detBit }

// StabilisationBound implements alg.Bound when the base counter has a
// known bound: T(B) ≤ T(A) + 3(F+2)(2m)^k.
func (b *Counter) StabilisationBound() uint64 {
	var baseT uint64
	if bd, ok := b.base.(alg.Bound); ok {
		baseT = bd.StabilisationBound()
	}
	return baseT + b.bound
}

// Base returns the base algorithm A.
func (b *Counter) Base() alg.Algorithm { return b.base }

// K returns the number of blocks.
func (b *Counter) K() int { return b.k }

// M returns m = ⌈k/2⌉, the number of candidate leader blocks.
func (b *Counter) M() int { return b.m }

// Tau returns τ = 3(F+2), the phase king schedule length.
func (b *Counter) Tau() uint64 { return b.tau }

// RoundOverhead returns 3(F+2)(2m)^k, the additive stabilisation-time
// cost of this application of Theorem 1.
func (b *Counter) RoundOverhead() uint64 { return b.bound }

// BlockOf returns the block index i of node v = (i, j).
func (b *Counter) BlockOf(v int) int { return v / b.n }

// IndexInBlock returns the within-block index j of node v = (i, j).
func (b *Counter) IndexInBlock(v int) int { return v % b.n }

// Step implements alg.Algorithm. Node v = (i, j) performs, in order:
// (1) the update of its block algorithm A_i, (2) the leader/counter vote
// computing R, and (3) instruction set I_R of the phase king protocol.
func (b *Counter) Step(v int, recv []alg.State, rng *rand.Rand) alg.State {
	i, j := b.BlockOf(v), b.IndexInBlock(v)

	// (1) Update A_i from the states of the own block.
	blockRecv := make([]alg.State, b.n)
	for jj := 0; jj < b.n; jj++ {
		blockRecv[jj] = b.cdc.Field(recv[i*b.n+jj], 0)
	}
	newBase := b.base.Step(j, blockRecv, rng)

	// (2) Three-level majority vote (Section 3.3).
	bigR := b.voteR(recv)

	// (3) Phase king instruction set I_R on the a/d registers.
	tally := alg.NewTally(b.nTot)
	for u := 0; u < b.nTot; u++ {
		tally.Add(b.Registers(recv[u]).A)
	}
	king := int(phaseking.KingOf(bigR))
	kingA := b.Registers(recv[king]).A
	regs := phaseking.Step(b.pkCfg, b.Registers(recv[v]), bigR, tally, kingA)

	aField, dField := regs.Encode(b.cOut)
	return b.cdc.MustPack(newBase, aField, dField)
}

// voteR computes the common round counter R from a full receive vector:
// bⁱ = majority{b[i,j]}, B = majority{bⁱ}, R = majority{r[B,j]}. All
// correct nodes receive identical vectors from correct senders, so
// Lemma 3 is a statement about how this function behaves across
// per-receiver variations of the faulty entries.
func (b *Counter) voteR(recv []alg.State) uint64 {
	blockVotes := make([]uint64, b.k)
	tally := alg.NewTally(b.n)
	for i := 0; i < b.k; i++ {
		tally.Reset()
		for j := 0; j < b.n; j++ {
			_, _, ptr := b.Leader(i*b.n+j, recv[i*b.n+j])
			tally.Add(ptr)
		}
		v, _ := tally.Majority() // defaults to 0 without absolute majority
		blockVotes[i] = v
	}
	bigB := alg.Majority(blockVotes)
	if bigB >= uint64(b.k) {
		bigB = 0 // honest pointers lie in [m] ⊆ [k]; clamp garbage
	}
	tally.Reset()
	for j := 0; j < b.n; j++ {
		u := int(bigB)*b.n + j
		r, _, _ := b.Leader(u, recv[u])
		tally.Add(r)
	}
	bigR, _ := tally.Majority()
	return bigR % b.tau
}

// Output implements alg.Algorithm: the output register a, with the reset
// state ∞ mapped into [C] as 0.
func (b *Counter) Output(_ int, s alg.State) int {
	a := b.cdc.Field(s, 1)
	if a >= b.cOut {
		return 0
	}
	return int(a)
}

// Leader decodes node u's packed state into the block-counter
// interpretation of Section 3.2: the round-within-τ counter r, the
// overflow counter y, and the leader pointer b[i,j] ∈ [m].
func (b *Counter) Leader(u int, s alg.State) (r, y, ptr uint64) {
	i := b.BlockOf(u)
	baseState := b.cdc.Field(s, 0)
	val := uint64(b.base.Output(b.IndexInBlock(u), baseState)) % b.blockMod[i]
	r = val % b.tau
	y = val / b.tau
	ptr = (y / b.pow2m[i]) % uint64(b.m)
	return r, y, ptr
}

// Registers decodes the phase king registers from a packed state.
func (b *Counter) Registers(s alg.State) phaseking.Registers {
	return phaseking.DecodeRegisters(b.cdc.Field(s, 1), b.cdc.Field(s, 2), b.cOut)
}

// BaseState extracts the base-algorithm state from a packed state.
func (b *Counter) BaseState(s alg.State) alg.State { return b.cdc.Field(s, 0) }

// Encode packs a base state and phase king registers into a node state.
// It is exposed for tests and construction-aware adversaries.
func (b *Counter) Encode(baseState alg.State, regs phaseking.Registers) (alg.State, error) {
	if baseState >= b.base.StateSpace() {
		return 0, fmt.Errorf("boost: base state %d outside space %d", baseState, b.base.StateSpace())
	}
	aField, dField := regs.Encode(b.cOut)
	return b.cdc.Pack(baseState, aField, dField)
}
