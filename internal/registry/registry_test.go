package registry

import (
	"errors"
	"strings"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
)

func TestNamesAndLookup(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, want := range []string{"trivial", "maxstep", "randagree", "randbiased", "corollary1", "theorem2", "figure2", "ecount", "ecount-chain"} {
		if _, err := byName(want); err != nil {
			t.Errorf("byName(%q): %v", want, err)
		}
	}
	if _, err := byName("nope"); err == nil || !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("byName(nope) = %v, want unknown-algorithm error", err)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate registry name %q", n)
		}
		seen[n] = true
	}
}

// TestBuildDefaults builds every spec at its default parameters —
// the invariant that keeps listings, compare defaults and the
// conformance suite runnable for every registered name.
func TestBuildDefaults(t *testing.T) {
	for _, spec := range specs {
		a, err := Build(spec.Name, Params{})
		if err != nil {
			t.Errorf("%s: default build failed: %v", spec.Name, err)
			continue
		}
		if a.N() < 1 || a.C() < 2 {
			t.Errorf("%s: built degenerate algorithm n=%d c=%d", spec.Name, a.N(), a.C())
		}
		if spec.MaxRounds(a) == 0 {
			t.Errorf("%s: zero simulation horizon", spec.Name)
		}
	}
}

// TestBuildRequirements: non-zero requested fields must be met exactly
// or rejected loudly.
func TestBuildRequirements(t *testing.T) {
	if a, err := Build("ecount", Params{F: 2, C: 6}); err != nil {
		t.Fatal(err)
	} else if a.N() != 7 || a.F() != 2 || a.C() != 6 {
		t.Fatalf("ecount f=2: built (%d, %d, %d)", a.N(), a.F(), a.C())
	}
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"trivial", Params{N: 2}},       // trivial is single-node
		{"maxstep", Params{F: 1}},       // 0-resilient family
		{"randagree", Params{C: 10}},    // counts modulo 2 only
		{"corollary1", Params{N: 9}},    // n = 3f+1 enforced
		{"theorem2", Params{F: 2}},      // k=4 depths reach 1, 3, 7, ...
		{"figure2", Params{N: 12}},      // fixed stack
		{"ecount", Params{N: 6, F: 2}},  // 3f < n violated
		{"ecount-chain", Params{F: 11}}, // state space blows past 2^62
		{"ecount", Params{N: 4, F: 2}},  // resilience impossible at n
	} {
		if _, err := Build(tc.name, tc.p); err == nil {
			t.Errorf("Build(%s, %+v) succeeded, want error", tc.name, tc.p)
		}
	}
}

// TestBuildCeilingIsDescriptive: builds whose packed per-node state
// blows past the codec's 2^62 ceiling must fail with an error that
// names the ceiling (not just the deepest codec's generic overflow)
// and still unwraps to codec.ErrSpaceTooLarge, while the largest
// buildable cells stay buildable. theorem2's deepest feasible stack is
// exactly f = 15 on n = 256 — the packed-state ceiling of the boost
// recursion — so n = 256 builds and anything past it is loud.
func TestBuildCeilingIsDescriptive(t *testing.T) {
	if a, err := Build("theorem2", Params{N: 256, F: 15, C: 10}); err != nil {
		t.Fatalf("theorem2 n=256 f=15 (the ceiling cell) must build: %v", err)
	} else if a.N() != 256 || a.F() != 15 {
		t.Fatalf("theorem2 ceiling cell built A(%d, %d), want A(256, 15)", a.N(), a.F())
	}
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"theorem2", Params{F: 31, C: 10}},    // next depth: n = 1024
		{"corollary1", Params{F: 5, C: 10}},   // f^O(f) space passes 2^62
		{"ecount-chain", Params{F: 5, C: 10}}, // chain state passes 2^62
	} {
		_, err := Build(tc.name, tc.p)
		if err == nil {
			t.Errorf("Build(%s, %v) succeeded, want ceiling error", tc.name, tc.p)
			continue
		}
		if !errors.Is(err, codec.ErrSpaceTooLarge) {
			t.Errorf("Build(%s, %v) error does not unwrap to ErrSpaceTooLarge: %v", tc.name, tc.p, err)
		}
		if !strings.Contains(err.Error(), "2^62 ceiling") || !strings.Contains(err.Error(), "shallower") {
			t.Errorf("Build(%s, %v) error is not descriptive: %v", tc.name, tc.p, err)
		}
	}
	// One past the ceiling by node count: no theorem2 depth runs on
	// n = 257, so an explicit request must fail loudly rather than
	// silently building a different size.
	if _, err := Build("theorem2", Params{N: 257, F: 15, C: 10}); err == nil {
		t.Fatal("theorem2 n=257 succeeded, want loud size mismatch")
	}
}

// TestTheorem2DepthSelection: the requested resilience picks the
// recursion depth.
func TestTheorem2DepthSelection(t *testing.T) {
	for _, tc := range []struct{ f, n int }{{1, 4}, {3, 16}, {7, 64}} {
		a, err := Build("theorem2", Params{F: tc.f})
		if err != nil {
			t.Fatal(err)
		}
		if a.N() != tc.n || a.F() != tc.f {
			t.Fatalf("theorem2 f=%d: built A(%d, %d), want A(%d, %d)", tc.f, a.N(), a.F(), tc.n, tc.f)
		}
		if _, ok := a.(alg.Bound); !ok {
			t.Fatalf("theorem2 f=%d: no stabilisation bound", tc.f)
		}
	}
}
