// Package recursion composes repeated applications of Theorem 1
// (internal/boost) into the paper's Section 4 constructions:
//
//   - Corollary 1: optimal resilience f < n/3 from the trivial 1-node
//     counter, k = 3f+1 blocks of one node each.
//   - Theorem 2: a fixed block count k at every level, yielding
//     resilience Ω(n^{1-ε}) with ε governed by k.
//   - Theorem 3: block counts varying over phases (k_p = 4·2^{P-p},
//     R_p = 2k_p levels per phase), yielding f = n^{1-o(1)}.
//
// A Plan records the per-level parameters; Build resolves the modulus
// chain *backward* (each level's output modulus must be a multiple of
// the next level's 3(F+2)(2m)^k overhead — we use exactly that overhead,
// which minimises state bits) and instantiates the stack bottom-up from
// the trivial base.
package recursion

import (
	"errors"
	"fmt"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/boost"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/counter"
)

// Every stack Build produces batch-steps: boost.Counter implements
// alg.BatchStepper recursively (each level shares its per-round vote
// tallies and devirtualizes into the level below), so campaigns over
// recursion plans run on the simulator's vectorized kernel end to end.
var _ alg.BatchStepper = (*boost.Counter)(nil)

// Level is one application of Theorem 1.
type Level struct {
	// K is the number of blocks at this level (each a copy of the
	// network built by the previous levels).
	K int
	// F is the resilience of the counter built at this level.
	F int
}

// Plan is a full recursive construction: a stack of Theorem 1
// applications over the trivial 1-node base, producing a c-counter.
type Plan struct {
	// Levels are applied bottom-up: Levels[0] acts on the trivial
	// 1-node counter.
	Levels []Level
	// C is the output modulus of the final counter.
	C int
}

// overhead returns 3(F+2)(2m)^k for one level: both the additive
// stabilisation-time cost of that level and the modulus granularity it
// demands of the level below.
func overhead(l Level) (uint64, error) {
	if l.K < 3 {
		return 0, fmt.Errorf("recursion: level needs k >= 3, got %d", l.K)
	}
	if l.F < 0 {
		return 0, fmt.Errorf("recursion: negative resilience %d", l.F)
	}
	m := (l.K + 1) / 2
	pow, err := codec.PowSpace(uint64(2*m), l.K)
	if err != nil {
		return 0, err
	}
	tau := 3 * uint64(l.F+2)
	if pow > codec.MaxSpace/tau {
		return 0, codec.ErrSpaceTooLarge
	}
	return tau * pow, nil
}

// Validate checks the plan's shape without instantiating it.
func (p Plan) Validate() error {
	if len(p.Levels) == 0 {
		return errors.New("recursion: plan has no levels")
	}
	if p.C < 2 {
		return fmt.Errorf("recursion: final modulus c = %d must be at least 2", p.C)
	}
	n, f := 1, 0
	for i, l := range p.Levels {
		if _, err := overhead(l); err != nil {
			return fmt.Errorf("level %d: %w", i, err)
		}
		m := (l.K + 1) / 2
		bigN := l.K * n
		if l.F >= (f+1)*m {
			return fmt.Errorf("level %d: F = %d violates F < (f+1)*ceil(k/2) = %d", i, l.F, (f+1)*m)
		}
		if 3*l.F >= bigN {
			return fmt.Errorf("level %d: F = %d violates F < N/3 (N = %d)", i, l.F, bigN)
		}
		n, f = bigN, l.F
	}
	return nil
}

// Stats summarises a plan's predicted parameters per Theorem 1.
type Stats struct {
	// N and F are the final network size and resilience.
	N, F int
	// C is the final output modulus.
	C int
	// TimeBound is the predicted stabilisation bound: the sum of the
	// per-level overheads 3(F+2)(2m)^k (the trivial base has T = 0).
	TimeBound uint64
	// StateBits is the exact space complexity S of the final algorithm.
	StateBits int
	// StateSpace is |X| of the final algorithm.
	StateSpace uint64
}

// Build instantiates the plan and returns the final counter together
// with every intermediate level (index 0 is the first boosted level) and
// the plan's statistics.
func Build(p Plan) (*boost.Counter, []*boost.Counter, Stats, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, Stats{}, err
	}

	// Resolve the modulus chain backward: level i's output modulus is
	// the overhead of level i+1; the last level outputs the user's C.
	mods := make([]uint64, len(p.Levels))
	mods[len(mods)-1] = uint64(p.C)
	for i := len(p.Levels) - 2; i >= 0; i-- {
		oh, err := overhead(p.Levels[i+1])
		if err != nil {
			return nil, nil, Stats{}, fmt.Errorf("level %d: %w", i+1, err)
		}
		mods[i] = oh
	}
	baseMod, err := overhead(p.Levels[0])
	if err != nil {
		return nil, nil, Stats{}, fmt.Errorf("level 0: %w", err)
	}

	base, err := counter.NewTrivial(int(baseMod))
	if err != nil {
		return nil, nil, Stats{}, fmt.Errorf("recursion: base: %w", err)
	}

	var cur alg.Algorithm = base
	levels := make([]*boost.Counter, 0, len(p.Levels))
	var timeBound uint64
	for i, l := range p.Levels {
		if mods[i] > uint64(maxInt) {
			return nil, nil, Stats{}, fmt.Errorf("level %d: modulus %d overflows int", i, mods[i])
		}
		bc, err := boost.New(cur, boost.Params{K: l.K, F: l.F, C: int(mods[i])})
		if err != nil {
			return nil, nil, Stats{}, fmt.Errorf("level %d: %w", i, err)
		}
		timeBound += bc.RoundOverhead()
		levels = append(levels, bc)
		cur = bc
	}
	top := levels[len(levels)-1]
	st := Stats{
		N:          top.N(),
		F:          top.F(),
		C:          top.C(),
		TimeBound:  timeBound,
		StateBits:  alg.StateBits(top),
		StateSpace: top.StateSpace(),
	}
	return top, levels, st, nil
}

const maxInt = int(^uint(0) >> 1)

// Corollary1 returns the plan of Corollary 1: an f-resilient c-counter
// on n = 3f+1 nodes built in a single Theorem 1 application over the
// trivial counter, with k = 3f+1 blocks of one node each. Resilience is
// optimal (f < n/3) but stabilisation time is f^O(f).
func Corollary1(f, c int) (Plan, error) {
	if f < 1 {
		return Plan{}, fmt.Errorf("recursion: Corollary 1 needs f >= 1, got %d", f)
	}
	p := Plan{Levels: []Level{{K: 3*f + 1, F: f}}, C: c}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// FixedK returns the Theorem 2 plan with a constant block count k at
// every level, iterated depth times, taking the maximal admissible
// resilience F = min((f+1)·⌈k/2⌉ - 1, ⌈N/3⌉ - 1) at each level.
func FixedK(k, depth, c int) (Plan, error) {
	if k < 3 {
		return Plan{}, fmt.Errorf("recursion: FixedK needs k >= 3, got %d", k)
	}
	if depth < 1 {
		return Plan{}, fmt.Errorf("recursion: FixedK needs depth >= 1, got %d", depth)
	}
	m := (k + 1) / 2
	p := Plan{C: c}
	n, f := 1, 0
	for i := 0; i < depth; i++ {
		if n > maxInt/k {
			return Plan{}, fmt.Errorf("recursion: FixedK(k=%d) network size overflows 64-bit integers at depth %d", k, i)
		}
		bigN := k * n
		F := (f+1)*m - 1
		if 3*F >= bigN {
			F = (bigN - 1) / 3
		}
		if F <= f {
			return Plan{}, fmt.Errorf("recursion: FixedK(k=%d) cannot increase resilience beyond %d at depth %d", k, f, i)
		}
		p.Levels = append(p.Levels, Level{K: k, F: F})
		n, f = bigN, F
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Figure2 returns the exact stack of the paper's Figure 2: the
// 1-resilient 4-node counter (from the trivial base, per Corollary 1),
// boosted to A(12, 3) and then to A(36, 7) with k = 3 blocks at each of
// the two upper levels.
func Figure2(c int) (Plan, error) {
	p := Plan{
		Levels: []Level{
			{K: 4, F: 1}, // A(4, 1): four blocks of one node
			{K: 3, F: 3}, // A(12, 3): three blocks of four
			{K: 3, F: 7}, // A(36, 7): three blocks of twelve
		},
		C: c,
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// VaryingK returns the Theorem 3 plan with P phases: phase p ∈ {1..P}
// uses k_p = 4·2^{P-p} blocks per level for R_p = 2·k_p levels, taking
// maximal admissible resilience at every level. Only tiny P (1 or 2) is
// buildable on 64-bit state spaces; larger P yields plans whose
// Validate/overhead report the blow-up honestly.
func VaryingK(phases, c int) (Plan, error) {
	if phases < 1 {
		return Plan{}, fmt.Errorf("recursion: VaryingK needs phases >= 1, got %d", phases)
	}
	p := Plan{C: c}
	n, f := 1, 0
	for ph := 1; ph <= phases; ph++ {
		k := 4 << (phases - ph) // 4·2^{P-p}
		m := (k + 1) / 2
		for it := 0; it < 2*k; it++ {
			if n > maxInt/k {
				// The Theorem 3 schedule is asymptotic by design: two
				// phases already exceed 2^63 nodes. Report the envelope
				// rather than wrapping around.
				return Plan{}, fmt.Errorf("recursion: VaryingK(%d) network size overflows 64-bit integers at phase %d iteration %d",
					phases, ph, it)
			}
			bigN := k * n
			F := (f+1)*m - 1
			if 3*F >= bigN {
				F = (bigN - 1) / 3
			}
			if F <= f {
				return Plan{}, fmt.Errorf("recursion: VaryingK stalls at phase %d iteration %d", ph, it)
			}
			p.Levels = append(p.Levels, Level{K: k, F: F})
			n, f = bigN, F
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// PredictedStats computes a plan's Stats without instantiating the
// algorithms (useful for plans too large to build). StateSpace is 0 when
// it would exceed the 2^62 limit.
func PredictedStats(p Plan) (Stats, error) {
	if err := p.Validate(); err != nil {
		return Stats{}, err
	}
	var st Stats
	st.C = p.C
	n := 1
	var timeBound uint64
	// Modulus chain, backward.
	mods := make([]uint64, len(p.Levels))
	mods[len(mods)-1] = uint64(p.C)
	for i := len(p.Levels) - 2; i >= 0; i-- {
		oh, err := overhead(p.Levels[i+1])
		if err != nil {
			return Stats{}, err
		}
		mods[i] = oh
	}
	baseMod, err := overhead(p.Levels[0])
	if err != nil {
		return Stats{}, err
	}
	space := baseMod
	bits := codec.SpaceBits(baseMod)
	spaceOK := true
	for i, l := range p.Levels {
		oh, err := overhead(l)
		if err != nil {
			return Stats{}, err
		}
		timeBound += oh
		n *= l.K
		st.F = l.F
		bits += codec.SpaceBits(mods[i]+1) + 1
		if spaceOK {
			s, err := codec.MulSpaces(space, mods[i]+1, 2)
			if err != nil {
				spaceOK = false
				space = 0
			} else {
				space = s
			}
		}
	}
	st.N = n
	st.TimeBound = timeBound
	st.StateBits = bits
	st.StateSpace = space
	return st, nil
}
