package alg

import (
	"math/rand"
	"testing"
)

// TestPluralityAgreement holds the map-backed and dense tallies'
// Plurality to the same answer on random multisets — including the
// Infinity reset key and out-of-domain garbage — which is what the
// sparse pull kernel's bit-identicality to the reference loop rests on.
func TestPluralityAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		domain := uint64(1 + rng.Intn(12))
		m := NewTally(8)
		d := NewDenseTally(domain)
		adds := rng.Intn(40)
		for i := 0; i < adds; i++ {
			var v uint64
			switch rng.Intn(10) {
			case 0:
				v = ^uint64(0) // Infinity
			case 1:
				v = domain + uint64(rng.Intn(5)) // out-of-domain spill
			default:
				v = uint64(rng.Intn(int(domain)))
			}
			m.Add(v)
			d.Add(v)
		}
		mv, mc := m.Plurality()
		dv, dc := d.Plurality()
		if mv != dv || mc != dc {
			t.Fatalf("trial %d: map (%d,%d) vs dense (%d,%d)", trial, mv, mc, dv, dc)
		}
		if adds == 0 && (mc != 0 || mv != 0) {
			t.Fatalf("empty tally plurality = (%d,%d), want (0,0)", mv, mc)
		}
	}
}

// TestDenseTallyDomainLimitBoundary pins the representation switch at
// exactly denseDomainLimit (2^16): a domain of 2^16-1 and of 2^16 get
// the slice backing, 2^16+1 silently degrades to the sparse map — and
// in all three regimes Add/Remove and every query agree with the
// map-backed Tally on multisets straddling the domain edge.
func TestDenseTallyDomainLimitBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, domain := range []uint64{denseDomainLimit - 1, denseDomainLimit, denseDomainLimit + 1} {
		d := NewDenseTally(domain)
		wantDense := domain <= denseDomainLimit
		if gotDense := uint64(len(d.counts)) == domain && domain != 0; gotDense != wantDense {
			t.Fatalf("domain %d: dense backing %v (len %d), want %v", domain, gotDense, len(d.counts), wantDense)
		}
		ref := NewTally(8)
		// Values hugging both edges of the domain, out-of-domain spill
		// included, plus the Infinity key.
		keys := []uint64{0, 1, domain - 2, domain - 1, domain, domain + 1, ^uint64(0)}
		var added []uint64
		for i := 0; i < 200; i++ {
			v := keys[rng.Intn(len(keys))]
			d.Add(v)
			ref.Add(v)
			added = append(added, v)
		}
		checkTallyEquiv(t, d, ref, keys, rng.Intn(4))
		// Remove half (DenseTally only; Tally has no Remove, so rebuild
		// the reference) and re-check every query.
		rng.Shuffle(len(added), func(i, j int) { added[i], added[j] = added[j], added[i] })
		keep := added[:len(added)/2]
		for _, v := range added[len(added)/2:] {
			d.Remove(v)
		}
		ref2 := NewTally(8)
		for _, v := range keep {
			ref2.Add(v)
		}
		checkTallyEquiv(t, d, ref2, keys, rng.Intn(4))
		mv, mc := ref2.Plurality()
		dv, dc := d.Plurality()
		if mv != dv || mc != dc {
			t.Fatalf("domain %d: plurality after removes: map (%d,%d) vs dense (%d,%d)", domain, mv, mc, dv, dc)
		}
	}
}

// TestPluralityTieBreak pins the deterministic tie rule: smallest value
// wins, and Infinity — the largest key — only wins alone.
func TestPluralityTieBreak(t *testing.T) {
	m := NewTally(4)
	d := NewDenseTally(8)
	for _, v := range []uint64{5, 2, 5, 2, 7} {
		m.Add(v)
		d.Add(v)
	}
	if v, c := m.Plurality(); v != 2 || c != 2 {
		t.Errorf("map tie-break: (%d,%d), want (2,2)", v, c)
	}
	if v, c := d.Plurality(); v != 2 || c != 2 {
		t.Errorf("dense tie-break: (%d,%d), want (2,2)", v, c)
	}

	inf := NewDenseTally(8)
	inf.Add(^uint64(0))
	inf.Add(^uint64(0))
	inf.Add(3)
	if v, c := inf.Plurality(); v != ^uint64(0) || c != 2 {
		t.Errorf("infinity plurality: (%d,%d)", v, c)
	}
	inf.Add(3)
	// Tied with a finite value: the finite (smaller) key wins.
	if v, c := inf.Plurality(); v != 3 || c != 2 {
		t.Errorf("infinity tie: (%d,%d), want (3,2)", v, c)
	}
}
