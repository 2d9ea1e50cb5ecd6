package alg

import (
	"math/bits"
	"math/rand"
)

// Bit-sliced ("vertical") round representation. The broadcast-model
// counters of the paper spend their rounds in majority/threshold
// tallies over states that are only a few bits wide, so the per-node
// state vector transposes into B bit-planes of ceil(n/64) machine
// words: lane v of plane b — bit v&63 of word v>>6 — is bit b of node
// v's state. Whole-word boolean operations then evaluate a vote for 64
// receivers at once, and the ≤ f faulty slots of each receiver arrive
// as an equally transposed patch matrix (one lane group per faulty
// sender) that masked word operations fold in without ever
// materialising a per-receiver vector.

// MaxSliceBits bounds the per-node state width (in bit-planes) the
// bit-sliced kernel path handles. Eight planes cover every binary and
// small-modulus stack; wider states lose the word-parallel advantage
// to plane bookkeeping and stay on the vectorized path.
const MaxSliceBits = 8

// BitPlanes is the transposed working set of one bit-sliced round:
// the start-of-round states of all n nodes as B × W words, the faulty
// senders' per-receiver values as (numFaulty·B) × W words, and the
// lane mask of correct nodes. The zero value is empty; Provision
// (re)shapes it, reusing backing storage across rounds and runs.
type BitPlanes struct {
	// N, W, B are the node count, words per plane (ceil(N/64)) and
	// state bit-planes of the current provision.
	N, W, B int
	// NumFaulty is the number of faulty senders (the patch row length
	// of the alg.Patches this layout transposes).
	NumFaulty int
	// CorrectCount is N minus NumFaulty.
	CorrectCount int
	// Correct masks the lanes of correct nodes: bit v&63 of word v>>6
	// is set iff node v is correct.
	Correct []uint64
	// State holds the B state planes: State[b][v>>6] bit v&63 is bit b
	// of node v's start-of-round state. Faulty lanes carry the faulty
	// node's (frozen) state and must be masked with Correct before use.
	State [][]uint64
	// Patch holds the transposed patch matrix: Patch[j*B+b][v>>6] bit
	// v&63 is bit b of the value faulty sender j (in ascending
	// Patches.Senders order) presented to receiver v this round. Lanes
	// of faulty receivers are zero and meaningless.
	Patch [][]uint64

	stateFlat  []uint64
	patchFlat  []uint64
	scatterAcc []uint64
}

// Provision (re)shapes the planes for n nodes, bits state planes and
// the given fault mask, reusing backing storage when it is large
// enough. Patch planes start cleared.
func (pl *BitPlanes) Provision(n, bits int, faulty []bool) {
	nf := 0
	for _, f := range faulty {
		if f {
			nf++
		}
	}
	pl.N, pl.B = n, bits
	pl.W = (n + 63) >> 6
	pl.NumFaulty = nf
	pl.CorrectCount = n - nf

	if cap(pl.Correct) < pl.W {
		pl.Correct = make([]uint64, pl.W)
	}
	pl.Correct = pl.Correct[:pl.W]
	for w := range pl.Correct {
		pl.Correct[w] = 0
	}
	for v, f := range faulty {
		if !f {
			pl.Correct[v>>6] |= 1 << uint(v&63)
		}
	}

	pl.stateFlat = growWords(pl.stateFlat, bits*pl.W)
	pl.State = carveRows(pl.State, pl.stateFlat, bits, pl.W)
	pl.patchFlat = growWords(pl.patchFlat, nf*bits*pl.W)
	pl.Patch = carveRows(pl.Patch, pl.patchFlat, nf*bits, pl.W)
	pl.ClearPatch()
}

func growWords(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func carveRows(rows [][]uint64, flat []uint64, n, w int) [][]uint64 {
	if cap(rows) < n {
		rows = make([][]uint64, n)
	}
	rows = rows[:n]
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// PackStates transposes the horizontal state vector into the state
// planes. All lanes are packed, faulty ones included (their states are
// frozen by the simulator); consumers mask with Correct.
func (pl *BitPlanes) PackStates(states []State) {
	for i := range pl.stateFlat {
		pl.stateFlat[i] = 0
	}
	for v, s := range states {
		w, bit := v>>6, uint(v&63)
		for b := 0; b < pl.B; b++ {
			pl.State[b][w] |= (s >> uint(b) & 1) << bit
		}
	}
}

// ClearPatch zeroes the patch planes for the next round's scatter.
func (pl *BitPlanes) ClearPatch() {
	for i := range pl.patchFlat {
		pl.patchFlat[i] = 0
	}
}

// SetPatch records that faulty sender j (ascending Senders index)
// presented state s to receiver v this round. The lane must have been
// cleared (ClearPatch) since the previous round.
func (pl *BitPlanes) SetPatch(j, v int, s State) {
	w, bit := v>>6, uint(v&63)
	base := j * pl.B
	for b := 0; b < pl.B; b++ {
		pl.Patch[base+b][w] |= (s >> uint(b) & 1) << bit
	}
}

// ScatterRows transposes a full round's patch matrix (Patches.Values
// layout: one row of NumFaulty values per correct receiver, nil rows
// for faulty receivers) into the patch planes in one pass, overwriting
// every plane word — no ClearPatch needed. Values are reduced into
// [0, space) on the fly: keeping only the low B planes already reduces
// mod any power-of-two space, and non-power-of-two spaces take an
// (almost never hit) explicit division. Column-major accumulation
// keeps the hot loop a contiguous row read plus a sequential
// accumulator update instead of a strided plane store per value; this
// scatter is the bit-sliced round's main O(n·f) scalar cost, so its
// constant matters more than anywhere else in the path.
func (pl *BitPlanes) ScatterRows(values [][]State, space uint64) {
	nf, B := pl.NumFaulty, pl.B
	if cap(pl.scatterAcc) < nf*B {
		pl.scatterAcc = make([]uint64, nf*B)
	}
	pow2 := space&(space-1) == 0
	for w := 0; w < pl.W; w++ {
		lo := w << 6
		hi := lo + 64
		if hi > pl.N {
			hi = pl.N
		}
		if B == 1 {
			// One plane per sender and the &1 mask is the whole
			// reduction (space 2): the inner loop is two ops per value.
			acc := pl.scatterAcc[:nf]
			for i := range acc {
				acc[i] = 0
			}
			for v := lo; v < hi; v++ {
				row := values[v]
				if row == nil || len(row) != len(acc) {
					continue
				}
				bit := uint(v - lo)
				for j := range acc {
					acc[j] |= (row[j] & 1) << bit
				}
			}
			for j := range acc {
				pl.Patch[j][w] = acc[j]
			}
			continue
		}
		acc := pl.scatterAcc[:nf*B]
		for i := range acc {
			acc[i] = 0
		}
		for v := lo; v < hi; v++ {
			row := values[v]
			if row == nil {
				continue
			}
			bit := uint(v - lo)
			for j, s := range row {
				if !pow2 && s >= space {
					s %= space
				}
				base := j * B
				for b := 0; b < B; b++ {
					acc[base+b] |= (s >> uint(b) & 1) << bit
				}
			}
		}
		for i := range acc {
			pl.Patch[i][w] = acc[i]
		}
	}
}

// BitSliceStepper is the bit-sliced transition hook, the third kernel
// path beside the scalar reference loop and the vectorized
// BatchStepper: algorithms that implement it step all correct nodes of
// a round from the transposed planes with word-parallel vote logic.
// StepAllSliced must be observationally identical to StepAll on the
// equivalent horizontal inputs — same next states, same per-node rng
// draw order (receivers ascending) — which the kernel differential
// suite pins against the scalar reference.
type BitSliceStepper interface {
	BatchStepper
	// SliceBits reports how many bit-planes this instance needs, or 0
	// when it does not qualify for the bit-sliced path (state wider
	// than MaxSliceBits, or a state layout the planes cannot express).
	SliceBits() int
	// StepAllSliced writes next[v] for every correct v (p.Values[v] !=
	// nil) and must leave the remaining entries untouched. pl holds the
	// transposed start-of-round states and patch matrix for the same
	// round as p; rngs[v] is node v's private randomness stream (nil
	// entries for deterministic algorithms).
	StepAllSliced(next []State, pl *BitPlanes, p *Patches, rngs []*rand.Rand)
}

// csa is a carry-save full adder over 64 independent lanes: it reduces
// three addend bits per lane to a sum bit and a carry bit (weight 2).
// Chained csa calls count votes across whole words without inter-lane
// carries — the classic bit-sliced population-count building block.
func csa(a, b, c uint64) (sum, carry uint64) {
	u := a ^ b
	return u ^ c, (a & b) | (u & c)
}

// PopcountMasked returns the total population count of words[i] &
// mask[i], reducing eight words at a time through a Harley–Seal
// carry-save adder tree so the (hardware) popcount runs once per eight
// words instead of once per word.
func PopcountMasked(words, mask []uint64) int {
	total := 0
	var ones, twos, fours uint64
	i := 0
	for ; i+8 <= len(words); i += 8 {
		var t0, t1, t2, t3 uint64
		ones, t0 = csa(ones, words[i]&mask[i], words[i+1]&mask[i+1])
		ones, t1 = csa(ones, words[i+2]&mask[i+2], words[i+3]&mask[i+3])
		twos, t2 = csa(twos, t0, t1)
		ones, t0 = csa(ones, words[i+4]&mask[i+4], words[i+5]&mask[i+5])
		ones, t1 = csa(ones, words[i+6]&mask[i+6], words[i+7]&mask[i+7])
		twos, t3 = csa(twos, t0, t1)
		fours, t0 = csa(fours, t2, t3)
		total += 8 * bits.OnesCount64(t0)
	}
	total += 4*bits.OnesCount64(fours) + 2*bits.OnesCount64(twos) + bits.OnesCount64(ones)
	for ; i < len(words); i++ {
		total += bits.OnesCount64(words[i] & mask[i])
	}
	return total
}

// SlicedAddBit adds one vote bit per lane into a vertical counter:
// cnt[i] holds bit i of each lane's running count. The caller sizes
// cnt so the maximum count fits (bits.Len(maxCount) planes); the carry
// then never leaves the top plane.
func SlicedAddBit(cnt []uint64, b uint64) {
	for i := 0; i < len(cnt) && b != 0; i++ {
		t := cnt[i] & b
		cnt[i] ^= b
		b = t
	}
}

// SlicedGE returns the mask of lanes whose vertical count is at least
// k: a bit-sliced magnitude comparator scanning the planes from the
// most significant down, tracking per lane whether the count is
// already strictly greater than k's prefix or still equal to it.
func SlicedGE(cnt []uint64, k uint64) uint64 {
	if k == 0 {
		return ^uint64(0)
	}
	if uint(len(cnt)) < 64 && k>>uint(len(cnt)) != 0 {
		return 0
	}
	var gt uint64
	eq := ^uint64(0)
	for i := len(cnt) - 1; i >= 0; i-- {
		kb := -(k >> uint(i) & 1)
		gt |= eq & cnt[i] &^ kb
		eq &= ^(cnt[i] ^ kb)
	}
	return gt | eq
}
