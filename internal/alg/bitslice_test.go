package alg

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestCSA(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		a, b, c := rng.Uint64(), rng.Uint64(), rng.Uint64()
		sum, carry := csa(a, b, c)
		for lane := 0; lane < 64; lane++ {
			total := a>>uint(lane)&1 + b>>uint(lane)&1 + c>>uint(lane)&1
			if got := sum>>uint(lane)&1 + 2*(carry>>uint(lane)&1); got != total {
				t.Fatalf("lane %d: CSA encodes %d, want %d", lane, got, total)
			}
		}
	}
}

func TestPopcountMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Lengths straddle the 8-word Harley–Seal block boundary.
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 64} {
		words := make([]uint64, n)
		mask := make([]uint64, n)
		for trial := 0; trial < 20; trial++ {
			want := 0
			for i := range words {
				words[i], mask[i] = rng.Uint64(), rng.Uint64()
				want += bits.OnesCount64(words[i] & mask[i])
			}
			if got := PopcountMasked(words, mask); got != want {
				t.Fatalf("len %d: PopcountMasked = %d, want %d", n, got, want)
			}
		}
	}
}

// addLaneCounts materialises the horizontal counts a vertical counter
// encodes.
func laneCounts(cnt []uint64) [64]uint64 {
	var out [64]uint64
	for lane := 0; lane < 64; lane++ {
		for i, p := range cnt {
			out[lane] |= (p >> uint(lane) & 1) << uint(i)
		}
	}
	return out
}

func TestSlicedCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		adds := rng.Intn(40)
		width := bits.Len(uint(adds))
		cnt := make([]uint64, width)
		var want [64]uint64
		for a := 0; a < adds; a++ {
			b := rng.Uint64()
			SlicedAddBit(cnt, b)
			for lane := 0; lane < 64; lane++ {
				want[lane] += b >> uint(lane) & 1
			}
		}
		if got := laneCounts(cnt); got != want {
			t.Fatalf("after %d adds: vertical counts %v, want %v", adds, got, want)
		}
		for _, k := range []uint64{0, 1, uint64(adds / 2), uint64(adds), uint64(adds) + 1} {
			ge := SlicedGE(cnt, k)
			for lane := 0; lane < 64; lane++ {
				if gotGE := ge>>uint(lane)&1 == 1; gotGE != (want[lane] >= k) {
					t.Fatalf("adds=%d k=%d lane=%d: SlicedGE=%v count=%d", adds, k, lane, gotGE, want[lane])
				}
			}
		}
	}
}

func TestSlicedGEOutOfRange(t *testing.T) {
	cnt := []uint64{^uint64(0), ^uint64(0)} // every lane counts 3
	if got := SlicedGE(cnt, 4); got != 0 {
		t.Fatalf("SlicedGE(3-lanes, 4) = %#x, want 0", got)
	}
	if got := SlicedGE(nil, 0); got != ^uint64(0) {
		t.Fatalf("SlicedGE(empty, 0) = %#x, want all lanes", got)
	}
}

// TestScatterRowsReducesNonPow2 pins the explicit division branch:
// for spaces that are not a power of two, masking to B planes is not
// enough and ScatterRows must reduce out-of-range values mod space.
func TestScatterRowsReducesNonPow2(t *testing.T) {
	const n, space = 70, uint64(10)
	faulty := make([]bool, n)
	faulty[3], faulty[64] = true, true
	var pl BitPlanes
	pl.Provision(n, bits.Len64(space-1), faulty)
	values := make([][]State, n)
	rng := rand.New(rand.NewSource(9))
	want := make([][]State, 2)
	want[0] = make([]State, n)
	want[1] = make([]State, n)
	for v := 0; v < n; v++ {
		if faulty[v] {
			continue
		}
		row := []State{rng.Uint64() % 40, rng.Uint64() % 40}
		values[v] = row
		want[0][v] = row[0] % space
		want[1][v] = row[1] % space
	}
	pl.ScatterRows(values, space)
	for j := 0; j < 2; j++ {
		for v := 0; v < n; v++ {
			if faulty[v] {
				continue
			}
			var got uint64
			for b := 0; b < pl.B; b++ {
				got |= (pl.Patch[j*pl.B+b][v>>6] >> uint(v&63) & 1) << uint(b)
			}
			if got != want[j][v] {
				t.Fatalf("patch (%d,%d) unpacks to %d, want %d", j, v, got, want[j][v])
			}
		}
	}
}

func TestBitPlanesPackAndPatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 5, 63, 64, 65, 130} {
		for _, b := range []int{1, 3, 8} {
			faulty := make([]bool, n)
			nf := 0
			for v := range faulty {
				if rng.Intn(4) == 0 {
					faulty[v] = true
					nf++
				}
			}
			var pl BitPlanes
			pl.Provision(n, b, faulty)
			if pl.NumFaulty != nf || pl.CorrectCount != n-nf {
				t.Fatalf("n=%d: Provision counted %d faulty, want %d", n, pl.NumFaulty, nf)
			}
			space := uint64(1) << uint(b)
			states := make([]State, n)
			for v := range states {
				states[v] = rng.Uint64() % space
			}
			pl.PackStates(states)
			for v := range states {
				var got uint64
				for bb := 0; bb < b; bb++ {
					got |= (pl.State[bb][v>>6] >> uint(v&63) & 1) << uint(bb)
				}
				if got != states[v] {
					t.Fatalf("n=%d b=%d: lane %d unpacks to %d, want %d", n, b, v, got, states[v])
				}
				correct := pl.Correct[v>>6]>>uint(v&63)&1 == 1
				if correct != !faulty[v] {
					t.Fatalf("n=%d: lane %d correct-mask %v, want %v", n, v, correct, !faulty[v])
				}
			}
			// ScatterRows transposes a random patch matrix, overwriting
			// stale words without a ClearPatch: a correct receiver's
			// lane reads back its forgery mod space, every other lane
			// (faulty receivers, the tail of the last word) reads 0.
			for i := range pl.patchFlat {
				pl.patchFlat[i] = ^uint64(0) // stale garbage to overwrite
			}
			patch := make([][]uint64, nf)
			values := make([][]State, n)
			for j := range patch {
				patch[j] = make([]uint64, n)
			}
			for v := 0; v < n; v++ {
				if faulty[v] {
					continue
				}
				row := make([]State, nf)
				for j := range row {
					patch[j][v] = rng.Uint64() % space
					// Unreduced forgeries: ScatterRows owns the mod-space
					// reduction, so congruent inputs must scatter alike.
					row[j] = patch[j][v] + space*uint64(rng.Intn(3))
				}
				values[v] = row
			}
			pl.ScatterRows(values, space)
			for j := 0; j < nf; j++ {
				for v := 0; v < 64*pl.W; v++ {
					var got, want uint64
					for bb := 0; bb < b; bb++ {
						got |= (pl.Patch[j*b+bb][v>>6] >> uint(v&63) & 1) << uint(bb)
					}
					if v < n {
						want = patch[j][v]
					}
					if got != want {
						t.Fatalf("n=%d b=%d: patch (%d,%d) unpacks to %d, want %d", n, b, j, v, got, want)
					}
				}
			}
			// ClearPatch resets for the next round.
			pl.ClearPatch()
			for i, word := range pl.Patch {
				for w, x := range word {
					if x != 0 {
						t.Fatalf("n=%d: patch plane %d word %d = %#x after ClearPatch", n, i, w, x)
					}
				}
			}
		}
	}
}
