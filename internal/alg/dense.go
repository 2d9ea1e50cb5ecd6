package alg

// DenseTally is the allocation-free counterpart of Tally for the hot
// paths of the vectorized round kernel: counts are kept in a slice
// indexed by value (a counting sort over the small value domains the
// constructions vote over — counter moduli, leader pointers, round
// counters), with a dedicated slot for the Infinity reset key and a
// lazily-built sparse map for out-of-domain garbage. Domains above
// denseDomainLimit skip the slice entirely and fall back to the map.
//
// Unlike Tally it also supports Remove, which is what lets the batch
// steppers share one tally across all receivers of a round: the base
// counts over correct senders are built once, and each receiver adds
// its f patched faulty values, queries, and removes them again —
// O(f) per receiver instead of O(n).
//
// All queries return exactly what the map-backed Tally returns for the
// same multiset; the kernel's bit-identicality to the reference loop
// depends on it.
type DenseTally struct {
	domain  uint64
	counts  []int
	pos     []int32  // pos[v]-1 = index of v in touched; 0 = absent
	touched []uint64 // distinct in-domain values with non-zero count
	inf     int      // count of the Infinity key (^uint64(0))
	sparse  map[uint64]int
	total   int
}

// denseDomainLimit is the largest value domain backed by slices; above
// it NewDenseTally degrades to the sparse map representation so that a
// huge state space cannot turn one tally into a giant allocation.
const denseDomainLimit = 1 << 16

// tallyInfinity is the reset key ∞ used by the phase king registers
// (phaseking.Infinity); it gets a dedicated slot so the hot paths never
// touch the sparse map.
const tallyInfinity = ^uint64(0)

// NewDenseTally returns a tally for values in [0, domain). Values at or
// above domain (including the Infinity key) are still counted, through
// the dedicated infinity slot or the sparse fallback.
func NewDenseTally(domain uint64) *DenseTally {
	t := &DenseTally{}
	t.Resize(domain)
	return t
}

// Resize reprovisions the tally for a new domain and resets it. Scratch
// pools use it to recycle tallies across runs of differently-sized
// algorithms.
func (t *DenseTally) Resize(domain uint64) {
	if domain > denseDomainLimit {
		domain = 0 // sparse-only representation
	}
	// Clear against the *current* backing first: touched entries index
	// the old domain and would land out of range after a shrink.
	t.Reset()
	if uint64(cap(t.counts)) >= domain {
		t.counts = t.counts[:domain]
		t.pos = t.pos[:domain]
	} else {
		t.counts = make([]int, domain)
		t.pos = make([]int32, domain)
	}
	t.domain = domain
}

// Reset clears all counts for reuse without shrinking the backing
// storage.
func (t *DenseTally) Reset() {
	for _, v := range t.touched {
		t.counts[v] = 0
		t.pos[v] = 0
	}
	t.touched = t.touched[:0]
	t.inf = 0
	for k := range t.sparse {
		delete(t.sparse, k)
	}
	t.total = 0
}

// Add records one proposal for value v.
func (t *DenseTally) Add(v uint64) {
	switch {
	case v < t.domain:
		if t.counts[v] == 0 {
			t.pos[v] = int32(len(t.touched)) + 1
			t.touched = append(t.touched, v)
		}
		t.counts[v]++
	case v == tallyInfinity:
		t.inf++
	default:
		if t.sparse == nil {
			t.sparse = make(map[uint64]int)
		}
		t.sparse[v]++
	}
	t.total++
}

// Remove withdraws one previously recorded proposal for v. Removing a
// value that was never added corrupts the tally; the batch steppers
// only ever remove what they just patched in.
func (t *DenseTally) Remove(v uint64) {
	switch {
	case v < t.domain:
		t.counts[v]--
		if t.counts[v] == 0 {
			// Swap-delete from touched so queries stay O(distinct).
			idx := t.pos[v] - 1
			last := t.touched[len(t.touched)-1]
			t.touched[idx] = last
			t.pos[last] = idx + 1
			t.touched = t.touched[:len(t.touched)-1]
			t.pos[v] = 0
		}
	case v == tallyInfinity:
		t.inf--
	default:
		t.sparse[v]--
		if t.sparse[v] == 0 {
			delete(t.sparse, v)
		}
	}
	t.total--
}

// Count returns how many proposals were recorded for v.
func (t *DenseTally) Count(v uint64) int {
	switch {
	case v < t.domain:
		return t.counts[v]
	case v == tallyInfinity:
		return t.inf
	default:
		return t.sparse[v]
	}
}

// Total returns the number of proposals recorded.
func (t *DenseTally) Total() int { return t.total }

// Majority returns the value held by strictly more than half of all
// proposals, exactly like Tally.Majority.
func (t *DenseTally) Majority() (uint64, bool) {
	for _, v := range t.touched {
		if 2*t.counts[v] > t.total {
			return v, true
		}
	}
	if 2*t.inf > t.total {
		return tallyInfinity, true
	}
	for v, c := range t.sparse {
		if 2*c > t.total {
			return v, true
		}
	}
	return 0, false
}

// MinValueWithCountAbove returns the smallest value whose count
// strictly exceeds threshold, exactly like the Tally method (Infinity
// is the largest key).
func (t *DenseTally) MinValueWithCountAbove(threshold int) (uint64, bool) {
	best := uint64(0)
	found := false
	for _, v := range t.touched {
		if t.counts[v] <= threshold {
			continue
		}
		if !found || v < best {
			best = v
			found = true
		}
	}
	for v, c := range t.sparse {
		if c <= threshold {
			continue
		}
		if !found || v < best {
			best = v
			found = true
		}
	}
	if t.inf > threshold && !found {
		// ∞ is larger than every finite key, so it only wins when no
		// finite value cleared the threshold.
		return tallyInfinity, true
	}
	return best, found
}

// Plurality returns the most frequent value and its count with
// smallest-value tie-breaking, exactly like Tally.Plurality. The scan
// runs over the touched list (plus the sparse spill), so the cost is
// O(distinct values), never O(domain) — the property that keeps the
// sparse pull kernel's per-node vote at O(k).
func (t *DenseTally) Plurality() (uint64, int) {
	best := 0
	for _, v := range t.touched {
		if t.counts[v] > best {
			best = t.counts[v]
		}
	}
	for _, c := range t.sparse {
		if c > best {
			best = c
		}
	}
	if t.inf > best {
		best = t.inf
	}
	if best == 0 {
		return 0, 0
	}
	v, _ := t.MinValueWithCountAbove(best - 1)
	return v, best
}

// Counts is the read-side of a tally: what the phase king engine (and
// every other majority-vote consumer) needs. Both *Tally and
// *DenseTally implement it, which is what lets the batch steppers swap
// the map-backed tally for the pooled dense one without touching the
// protocol logic.
type Counts interface {
	Count(v uint64) int
	Total() int
	MinValueWithCountAbove(threshold int) (uint64, bool)
}

var (
	_ Counts = (*Tally)(nil)
	_ Counts = (*DenseTally)(nil)
)
