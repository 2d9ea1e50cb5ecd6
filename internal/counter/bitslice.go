package counter

import (
	"math/bits"
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Bit-sliced round-kernel support: the binary and small-modulus
// counters in this package are exactly the majority/threshold shapes
// classic bit-slicing was made for, so each implements
// alg.BitSliceStepper — votes are counted with carry-save adders over
// whole 64-lane words and the ≤ f faulty slots per receiver fold in
// as transposed patch planes. Every StepAllSliced is observationally
// identical to per-node Step, including the order and number of rng
// draws, which the kernel differential suite pins against the scalar
// reference.
var (
	_ alg.BitSliceStepper = (*Trivial)(nil)
	_ alg.BitSliceStepper = (*MaxStep)(nil)
	_ alg.BitSliceStepper = (*RandomizedAgree)(nil)
)

// sliceBitsFor returns the plane count for a modulus-c state space, or
// 0 when it exceeds the bit-sliced path's width bound.
func sliceBitsFor(c uint64) int {
	b := bits.Len64(c - 1)
	if b == 0 || b > alg.MaxSliceBits {
		return 0
	}
	return b
}

// SliceBits implements alg.BitSliceStepper.
func (t *Trivial) SliceBits() int { return sliceBitsFor(t.c) }

// StepAllSliced implements alg.BitSliceStepper. A single node has a
// single lane, so this degenerates to the scalar increment.
func (t *Trivial) StepAllSliced(next []alg.State, pl *alg.BitPlanes, p *alg.Patches, _ []*rand.Rand) {
	if p.Faulty[0] {
		return
	}
	var s uint64
	for b := 0; b < pl.B; b++ {
		s |= (pl.State[b][0] & 1) << uint(b)
	}
	next[0] = (s%t.c + 1) % t.c
}

// SliceBits implements alg.BitSliceStepper.
func (m *MaxStep) SliceBits() int { return sliceBitsFor(m.c) }

// maxSliceScratch is MaxStep's pooled per-call working set: the
// candidate masks of the shared-maximum scan and the per-column
// sender-elimination state. The vote planes are fixed arrays — B never
// exceeds alg.MaxSliceBits.
type maxSliceScratch struct {
	cand, tmp, alive []uint64
	maxP, res        [alg.MaxSliceBits]uint64
}

// StepAllSliced implements alg.BitSliceStepper: the shared maximum over
// correct states falls out of an MSB-down candidate-elimination scan
// over the state planes (one AND per plane word); per receiver only
// the ≤ f faulty lanes are reconciled, column by column, with a
// vertical maximum over the patch planes followed by a bit-sliced
// compare-and-increment against the shared value.
func (m *MaxStep) StepAllSliced(next []alg.State, pl *alg.BitPlanes, p *alg.Patches, _ []*rand.Rand) {
	B := pl.B
	sc, _ := m.slicePool.Get().(*maxSliceScratch)
	if sc == nil {
		sc = &maxSliceScratch{}
	}
	if cap(sc.cand) < pl.W {
		sc.cand = make([]uint64, pl.W)
		sc.tmp = make([]uint64, pl.W)
	}
	if cap(sc.alive) < pl.NumFaulty {
		sc.alive = make([]uint64, pl.NumFaulty)
	}
	defer m.slicePool.Put(sc)

	// Shared maximum over correct lanes: keep the candidate set of
	// lanes still tied for the maximum; a plane with any candidate bit
	// set belongs to the maximum and shrinks the set.
	cand, tmp := sc.cand[:pl.W], sc.tmp[:pl.W]
	copy(cand, pl.Correct)
	var shared uint64
	for b := B - 1; b >= 0; b-- {
		plane := pl.State[b]
		var any uint64
		for w := range cand {
			tmp[w] = cand[w] & plane[w]
			any |= tmp[w]
		}
		if any != 0 {
			shared |= 1 << uint(b)
			cand, tmp = tmp, cand
		}
	}

	nf := pl.NumFaulty
	if nf == 0 {
		// Fault-free: every receiver observes the same vector, so the
		// next state is one shared scalar.
		nx := (shared + 1) % m.c
		for v := range next {
			if !p.Faulty[v] {
				next[v] = nx
			}
		}
		return
	}

	alive := sc.alive[:nf]
	top := m.c - 1
	for w := 0; w < pl.W; w++ {
		col := pl.Correct[w]
		if col == 0 {
			continue
		}
		// Vertical maximum over the nf patch values of each lane:
		// MSB-down, a sender stays alive only while it matches the
		// running maximum's prefix.
		for j := 0; j < nf; j++ {
			alive[j] = col
		}
		for b := B - 1; b >= 0; b-- {
			var hi uint64
			for j := 0; j < nf; j++ {
				hi |= alive[j] & pl.Patch[j*B+b][w]
			}
			sc.maxP[b] = hi
			for j := 0; j < nf; j++ {
				alive[j] &= ^hi | pl.Patch[j*B+b][w]
			}
		}
		// res = max(patch maximum, shared maximum) per lane.
		var gt uint64
		eq := ^uint64(0)
		for b := B - 1; b >= 0; b-- {
			sb := -(shared >> uint(b) & 1)
			gt |= eq & sc.maxP[b] &^ sb
			eq &= ^(sc.maxP[b] ^ sb)
		}
		wrap := ^uint64(0)
		for b := 0; b < B; b++ {
			sb := -(shared >> uint(b) & 1)
			sc.res[b] = (gt & sc.maxP[b]) | (^gt & sb)
			wrap &= ^(sc.res[b] ^ -(top >> uint(b) & 1))
		}
		// Increment with wrap-to-zero at c-1.
		carry := col
		for b := 0; b < B; b++ {
			nb := sc.res[b] ^ carry
			carry &= sc.res[b]
			sc.res[b] = nb &^ wrap
		}
		for mask := col; mask != 0; mask &= mask - 1 {
			i := bits.TrailingZeros64(mask)
			var s uint64
			for b := 0; b < B; b++ {
				s |= (sc.res[b] >> uint(i) & 1) << uint(b)
			}
			next[w<<6+i] = s
		}
	}
}

// verticalCounts accumulates the per-receiver count of set patch bits
// (plane 0 of each faulty sender) for one word column into a vertical
// counter of the given width.
func verticalCounts(cnt []uint64, pl *alg.BitPlanes, w int) {
	for j := 0; j < pl.NumFaulty; j++ {
		alg.SlicedAddBit(cnt, pl.Patch[j*pl.B][w])
	}
}

// laneLE returns the mask of lanes whose vertical count is at most t,
// clamping the threshold against the count range [0, nf].
func laneLE(cnt []uint64, t, nf int) uint64 {
	switch {
	case t >= nf:
		return ^uint64(0)
	case t < 0:
		return 0
	}
	return ^alg.SlicedGE(cnt, uint64(t)+1)
}

// laneGE returns the mask of lanes whose vertical count is at least t,
// clamping the threshold against the count range [0, nf].
func laneGE(cnt []uint64, t, nf int) uint64 {
	switch {
	case t <= 0:
		return ^uint64(0)
	case t > nf:
		return 0
	}
	return alg.SlicedGE(cnt, uint64(t))
}

// SliceBits implements alg.BitSliceStepper: one state bit.
func (r *RandomizedAgree) SliceBits() int { return 1 }

// StepAllSliced implements alg.BitSliceStepper: one Harley–Seal
// popcount over the correct lanes yields the shared one-count; per
// word column a carry-save adder tree over the ≤ f patch planes gives
// each receiver's faulty one-count, and the two n-f threshold tests
// become bit-sliced comparisons against constants. Only lanes that
// fall through to the coin branch touch their rng, receivers
// ascending, exactly as Step does.
func (r *RandomizedAgree) StepAllSliced(next []alg.State, pl *alg.BitPlanes, p *alg.Patches, rngs []*rand.Rand) {
	ones := alg.PopcountMasked(pl.State[0], pl.Correct)
	zeros := pl.CorrectCount - ones
	nf := pl.NumFaulty
	// With k of the nf patched values equal to 1, receiver v sees
	// zeros+nf-k zeros and ones+k ones; the thresholds rearrange to
	// bounds on k alone.
	t1 := zeros + nf - (r.n - r.f) // adopt 1 iff k <= t1
	t0 := (r.n - r.f) - ones       // adopt 0 iff k >= t0
	width := bits.Len(uint(nf))
	var cntArr [16]uint64
	for w := 0; w < pl.W; w++ {
		col := pl.Correct[w]
		if col == 0 {
			continue
		}
		cnt := cntArr[:width]
		for i := range cnt {
			cnt[i] = 0
		}
		verticalCounts(cnt, pl, w)
		m1 := laneLE(cnt, t1, nf) & col
		m0 := laneGE(cnt, t0, nf) &^ m1 & col
		base := w << 6
		for mask := col; mask != 0; mask &= mask - 1 {
			i := bits.TrailingZeros64(mask)
			lane := uint64(1) << uint(i)
			switch {
			case m1&lane != 0:
				next[base+i] = 1
			case m0&lane != 0:
				next[base+i] = 0
			default:
				next[base+i] = uint64(rngs[base+i].Intn(2))
			}
		}
	}
}
