package sim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

// TestUniformStateHugeSpaces is the regression test for the Int63n
// overflow: rng.Int63n(int64(space)) panics for spaces above 2^63
// (int64(space) goes negative). Spaces up to 2^62 are what the codec
// admits today, but alg.UniformState must be total over the full uint64
// range — the chain split already reaches the codec ceiling and the
// next doubling crosses the Int63n boundary.
func TestUniformStateHugeSpaces(t *testing.T) {
	spaces := []uint64{
		1, 2, 1 << 62, math.MaxInt64, // historical Int63n path
		uint64(1) << 63, uint64(1)<<63 + 12345, math.MaxUint64, // rejection path
	}
	rng := rand.New(rand.NewSource(7))
	for _, space := range spaces {
		for i := 0; i < 2048; i++ {
			s := alg.UniformState(rng, space)
			if s >= space {
				t.Fatalf("space %d: drew %d out of range", space, s)
			}
		}
	}
}

// TestUniformStateKeepsHistoricalStream pins the draw stream for every
// space Int63n can represent: golden files across the repository
// depend on it bit-for-bit.
func TestUniformStateKeepsHistoricalStream(t *testing.T) {
	for _, space := range []uint64{2, 10, 960, 1 << 62, math.MaxInt64} {
		a := rand.New(rand.NewSource(99))
		b := rand.New(rand.NewSource(99))
		for i := 0; i < 512; i++ {
			want := uint64(a.Int63n(int64(space)))
			if got := alg.UniformState(b, space); got != want {
				t.Fatalf("space %d draw %d: got %d, want %d (historical stream broken)", space, i, got, want)
			}
		}
	}
}

// TestUniformStateDeterministic: same seed, same stream — including
// across the rejection-sampling path.
func TestUniformStateDeterministic(t *testing.T) {
	const space = uint64(1)<<63 + 999
	a := rand.New(rand.NewSource(5))
	b := rand.New(rand.NewSource(5))
	for i := 0; i < 512; i++ {
		if x, y := alg.UniformState(a, space), alg.UniformState(b, space); x != y {
			t.Fatalf("draw %d: %d != %d", i, x, y)
		}
	}
}
