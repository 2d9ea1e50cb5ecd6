package alg

import (
	"math/rand"
	"testing"
)

// TestDenseTallyMatchesTally drives a DenseTally and the map-backed
// Tally with the same random multiset — including the Infinity reset
// key and out-of-domain garbage — and requires identical answers from
// every query after every mutation. The vectorized kernel's
// bit-identicality to the reference loop reduces to this equivalence.
func TestDenseTallyMatchesTally(t *testing.T) {
	const domain = 16
	rng := rand.New(rand.NewSource(42))
	keys := []uint64{0, 1, 5, domain - 1, domain, domain + 7, ^uint64(0)}

	for trial := 0; trial < 200; trial++ {
		dense := NewDenseTally(domain)
		ref := NewTally(8)
		var added []uint64
		n := rng.Intn(24)
		for i := 0; i < n; i++ {
			k := keys[rng.Intn(len(keys))]
			dense.Add(k)
			ref.Add(k)
			added = append(added, k)
		}
		checkTallyEquiv(t, dense, ref, keys, rng.Intn(2*domain))

		// Remove a random suffix (the add/query/remove pattern of the
		// batch steppers) and re-check against a rebuilt reference.
		if len(added) > 0 {
			cut := rng.Intn(len(added))
			ref2 := NewTally(8)
			for _, k := range added[:cut] {
				ref2.Add(k)
			}
			for _, k := range added[cut:] {
				dense.Remove(k)
			}
			checkTallyEquiv(t, dense, ref2, keys, rng.Intn(2*domain))
		}
	}
}

func checkTallyEquiv(t *testing.T, dense *DenseTally, ref *Tally, keys []uint64, threshold int) {
	t.Helper()
	if dense.Total() != ref.Total() {
		t.Fatalf("Total: dense %d, ref %d", dense.Total(), ref.Total())
	}
	for _, k := range keys {
		if dense.Count(k) != ref.Count(k) {
			t.Fatalf("Count(%d): dense %d, ref %d", k, dense.Count(k), ref.Count(k))
		}
	}
	dv, dok := dense.Majority()
	rv, rok := ref.Majority()
	if dv != rv || dok != rok {
		t.Fatalf("Majority: dense (%d,%v), ref (%d,%v)", dv, dok, rv, rok)
	}
	dm, dmok := dense.MinValueWithCountAbove(threshold)
	rm, rmok := ref.MinValueWithCountAbove(threshold)
	if dm != rm || dmok != rmok {
		t.Fatalf("MinValueWithCountAbove(%d): dense (%d,%v), ref (%d,%v)", threshold, dm, dmok, rm, rmok)
	}
}

// TestDenseTallySparseFallback: domains beyond denseDomainLimit must
// degrade to the sparse representation, not allocate a giant slice.
func TestDenseTallySparseFallback(t *testing.T) {
	tl := NewDenseTally(uint64(1) << 40)
	if len(tl.counts) != 0 {
		t.Fatalf("huge domain allocated a dense array of %d", len(tl.counts))
	}
	tl.Add(7)
	tl.Add(7)
	tl.Add(1 << 39)
	if tl.Count(7) != 2 || tl.Count(1<<39) != 1 || tl.Total() != 3 {
		t.Fatal("sparse counting broken")
	}
	if v, ok := tl.Majority(); !ok || v != 7 {
		t.Fatalf("sparse Majority = (%d, %v)", v, ok)
	}
	tl.Remove(7)
	if v, ok := tl.Majority(); ok {
		t.Fatalf("no majority expected after removal, got %d", v)
	}
	if v, ok := tl.MinValueWithCountAbove(0); !ok || v != 7 {
		t.Fatalf("sparse MinValueWithCountAbove = (%d, %v)", v, ok)
	}
}

// TestDenseTallyResizeReuse: Resize must fully reset the tally while
// reusing backing storage where it can (the scratch-pool contract).
func TestDenseTallyResizeReuse(t *testing.T) {
	tl := NewDenseTally(32)
	tl.Add(3)
	tl.Add(^uint64(0))
	tl.Add(1 << 30) // sparse
	tl.Resize(16)
	if tl.Total() != 0 || tl.Count(3) != 0 || tl.Count(^uint64(0)) != 0 || tl.Count(1<<30) != 0 {
		t.Fatal("Resize did not clear the tally")
	}
	tl.Add(15)
	if v, ok := tl.Majority(); !ok || v != 15 {
		t.Fatalf("post-resize Majority = (%d, %v)", v, ok)
	}
}

// TestDenseTallyShrinkDirty is the regression test for the pooled
// forge-scratch crash: shrinking a tally that still holds counts above
// the new domain must clear against the old backing, not index stale
// touched entries through the shrunk slices.
func TestDenseTallyShrinkDirty(t *testing.T) {
	tl := NewDenseTally(100)
	tl.Add(99) // dirty, near the top of the old domain
	tl.Resize(10)
	if tl.Total() != 0 || tl.Count(99) != 0 {
		t.Fatal("shrinking Resize did not clear the tally")
	}
	tl.Add(9)
	if v, ok := tl.Majority(); !ok || v != 9 {
		t.Fatalf("post-shrink Majority = (%d, %v)", v, ok)
	}
	// Regrow within capacity: the region between the domains must have
	// been zeroed, not resurrect the stale count of 99.
	tl.Resize(100)
	if tl.Count(99) != 0 {
		t.Fatal("regrown tally resurrected a stale count")
	}
}

// TestDenseTallyInfinityVsFinite pins the ∞-is-largest-key convention
// of MinValueWithCountAbove that the phase king reset rule relies on.
func TestDenseTallyInfinityVsFinite(t *testing.T) {
	tl := NewDenseTally(8)
	tl.Add(^uint64(0))
	tl.Add(^uint64(0))
	tl.Add(5)
	if v, ok := tl.MinValueWithCountAbove(1); !ok || v != ^uint64(0) {
		t.Fatalf("only ∞ clears threshold 1: got (%d, %v)", v, ok)
	}
	tl.Add(5)
	if v, ok := tl.MinValueWithCountAbove(1); !ok || v != 5 {
		t.Fatalf("finite value must shadow ∞: got (%d, %v)", v, ok)
	}
}
