// Package registry enumerates every synchronous-counting stack in the
// repository under one constructor keyed by name, so that campaign
// commands, the cross-algorithm conformance suite and future workloads
// (the 1608.00214 firing squads) can build any counter from a uniform
// (n, f, c) parameterisation without knowing the per-package
// constructors.
//
// Each spec interprets Params with its own defaults and constraints: a
// zero field means "use the spec default / derive it", a non-zero
// field is a requirement the built algorithm must meet exactly. The
// conformance grid lives with the tests, in registrytest.Cells: listing
// a new algorithm's cells there is all it takes to put it under spec
// coverage, and the conformance suite fails for a name without cells.
package registry

import (
	"errors"
	"fmt"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/recursion"
)

// Params is the uniform parameterisation of a counter build. Zero
// fields take spec defaults; non-zero fields must be met exactly by
// the built algorithm (checked after construction).
type Params struct {
	// N is the number of nodes.
	N int
	// F is the design resilience.
	F int
	// C is the output counter modulus.
	C int
}

func (p Params) String() string { return fmt.Sprintf("n=%d f=%d c=%d", p.N, p.F, p.C) }

// withDefaults fills zero fields from d.
func (p Params) withDefaults(d Params) Params {
	if p.N == 0 {
		p.N = d.N
	}
	if p.F == 0 {
		p.F = d.F
	}
	if p.C == 0 {
		p.C = d.C
	}
	return p
}

// spec describes one registered algorithm family.
type spec struct {
	// Name keys the spec; it appears in CLI flags and scenario names.
	Name string
	// Default fills zero Params fields. A Default field of 0 means the
	// build derives that parameter itself (e.g. N from F).
	Default Params
	// build constructs the algorithm for defaulted params (set at
	// registration).
	build func(p Params) (alg.Algorithm, error)
}

// Build constructs the spec's algorithm: defaults are applied, the
// algorithm is built, and any non-zero requested field is verified
// against what was actually built.
func (s *spec) Build(p Params) (alg.Algorithm, error) {
	filled := p.withDefaults(s.Default)
	a, err := s.build(filled)
	if err != nil {
		if errors.Is(err, codec.ErrSpaceTooLarge) {
			// Name the ceiling instead of letting the deepest codec's
			// generic overflow bubble up: the recursion stacks pack the
			// whole per-node state into one 64-bit word, and the packed
			// space grows super-exponentially with resilience — theorem2
			// tops out at f = 15 (n = 256), corollary1 and ecount-chain
			// at f = 4.
			return nil, fmt.Errorf("registry: %s(%v): per-node packed state exceeds the codec's 2^62 ceiling (the recursion stacks top out near n ≈ 256: theorem2 f ≤ 15, corollary1/ecount-chain f ≤ 4); request a shallower cell: %w", s.Name, filled, err)
		}
		return nil, fmt.Errorf("registry: %s(%v): %w", s.Name, filled, err)
	}
	if p.N != 0 && a.N() != p.N {
		return nil, fmt.Errorf("registry: %s builds n = %d, not the requested %d", s.Name, a.N(), p.N)
	}
	if p.F != 0 && a.F() != p.F {
		return nil, fmt.Errorf("registry: %s builds f = %d, not the requested %d", s.Name, a.F(), p.F)
	}
	if p.C != 0 && a.C() != p.C {
		return nil, fmt.Errorf("registry: %s builds c = %d, not the requested %d", s.Name, a.C(), p.C)
	}
	return a, nil
}

// MaxRounds returns the simulation horizon for an algorithm built
// from this spec: its declared bound plus slack, or 2^16 rounds for
// bound-less (randomised) algorithms — their expected stabilisation
// is 2^Θ(n-f), which the budget covers overwhelmingly on the small
// instances the registry exposes.
func (s *spec) MaxRounds(a alg.Algorithm) uint64 {
	if b, ok := a.(alg.Bound); ok {
		return b.StabilisationBound() + 512
	}
	return 1 << 16
}

// specs is the registration table. Order is the presentation order of
// listings and compare tables: baselines, then the source paper's
// recursion stacks, then the 1508.02535 stacks.
var specs []*spec

func register(s *spec, build func(p Params) (alg.Algorithm, error)) {
	s.build = build
	specs = append(specs, s)
}

func init() {
	// 0-resilient 1-node counter (Corollary 1 base case).
	register(&spec{
		Name:    "trivial",
		Default: Params{N: 1, C: 10},
	}, func(p Params) (alg.Algorithm, error) {
		if p.N != 1 {
			return nil, fmt.Errorf("trivial counter runs on one node, not %d", p.N)
		}
		if p.F != 0 {
			return nil, fmt.Errorf("trivial counter has resilience 0, not %d", p.F)
		}
		return counter.NewTrivial(p.C)
	})

	// 0-resilient n-node counter stabilising in one round.
	register(&spec{
		Name:    "maxstep",
		Default: Params{N: 4, C: 10},
	}, func(p Params) (alg.Algorithm, error) {
		if p.F != 0 {
			return nil, fmt.Errorf("maxstep has resilience 0, not %d", p.F)
		}
		return counter.NewMaxStep(p.N, p.C)
	})

	// Folklore randomised 2-counter (Table 1 rows [6,7]).
	register(&spec{
		Name:    "randagree",
		Default: Params{N: 4, F: 1, C: 2},
	}, func(p Params) (alg.Algorithm, error) {
		if p.C != 2 {
			return nil, fmt.Errorf("randagree counts modulo 2, not %d", p.C)
		}
		return counter.NewRandomizedAgree(p.N, p.F)
	})

	// Source paper Corollary 1: optimal resilience on n = 3f+1, time f^O(f).
	register(&spec{
		Name:    "corollary1",
		Default: Params{F: 1, C: 10},
	}, func(p Params) (alg.Algorithm, error) {
		if p.N != 0 && p.N != 3*p.F+1 {
			return nil, fmt.Errorf("corollary1 runs on n = 3f+1 = %d nodes, not %d", 3*p.F+1, p.N)
		}
		plan, err := recursion.Corollary1(p.F, p.C)
		if err != nil {
			return nil, err
		}
		top, _, _, err := recursion.Build(plan)
		return top, err
	})

	// Source paper Theorem 2: fixed block count k = 4, resilience from depth.
	register(&spec{
		Name:    "theorem2",
		Default: Params{F: 3, C: 10},
	}, func(p Params) (alg.Algorithm, error) {
		// Depth d of the k = 4 recursion reaches resiliences 1, 3, 7,
		// 15, ...; the requested F selects the first depth reaching it
		// and must be hit exactly.
		for depth := 1; depth <= 8; depth++ {
			plan, err := recursion.FixedK(4, depth, p.C)
			if err != nil {
				return nil, err
			}
			st, err := recursion.PredictedStats(plan)
			if err != nil {
				return nil, err
			}
			if st.F < p.F {
				continue
			}
			if st.F != p.F {
				return nil, fmt.Errorf("theorem2 (k = 4) reaches resilience %d, not %d; pick one of 1, 3, 7, ...", st.F, p.F)
			}
			if p.N != 0 && st.N != p.N {
				return nil, fmt.Errorf("theorem2 with f = %d runs on n = %d nodes, not %d", p.F, st.N, p.N)
			}
			top, _, _, err := recursion.Build(plan)
			return top, err
		}
		return nil, fmt.Errorf("theorem2: resilience %d out of reach", p.F)
	})

	// Source paper Figure 2 stack: A(4,1) → A(12,3) → A(36,7).
	register(&spec{
		Name:    "figure2",
		Default: Params{N: 36, F: 7, C: 10},
	}, func(p Params) (alg.Algorithm, error) {
		if p.N != 36 || p.F != 7 {
			return nil, fmt.Errorf("figure2 is the fixed A(36, 7) stack, not A(%d, %d)", p.N, p.F)
		}
		plan, err := recursion.Figure2(p.C)
		if err != nil {
			return nil, err
		}
		top, _, _, err := recursion.Build(plan)
		return top, err
	})

	// 1508.02535 balanced recursion: silent-consensus counter, O(f) time.
	register(&spec{
		Name:    "ecount",
		Default: Params{F: 1, C: 10},
	}, func(p Params) (alg.Algorithm, error) {
		n := p.N
		if n == 0 {
			n = 3*p.F + 1
		}
		return ecount.New(n, p.F, p.C)
	})

	// 1508.02535 chain recursion: one fault peeled per level, O(f^2) time.
	register(&spec{
		Name:    "ecount-chain",
		Default: Params{F: 1, C: 10},
	}, func(p Params) (alg.Algorithm, error) {
		n := p.N
		if n == 0 {
			n = 3*p.F + 1
		}
		return ecount.NewChain(n, p.F, p.C)
	})
}

// Names returns the registered algorithm names in presentation order.
func Names() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// byName looks a spec up.
func byName(name string) (*spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("registry: unknown algorithm %q (have %v)", name, Names())
}

// Build constructs the named algorithm with the given params — the
// registry's common constructor.
func Build(name string, p Params) (alg.Algorithm, error) {
	s, err := byName(name)
	if err != nil {
		return nil, err
	}
	return s.Build(p)
}
