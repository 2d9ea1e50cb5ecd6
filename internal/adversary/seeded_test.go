package adversary

import (
	"math"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

// seededDrawSpaces spans the draw rule's branches: the space <= 1
// shortcut, power-of-two masks, Int63n's modulo path with and without
// rejections (2^61+1 rejects about a quarter of all words), the top of
// the Int63n range and the Uint64 loop above MaxInt64.
var seededDrawSpaces = []uint64{
	0, 1, 2, 3, 8, 12, 960, lehmerMod, 1 << 40, 1<<61 + 1, 1 << 62,
	math.MaxInt64, 1 << 63, math.MaxUint64,
}

// TestSeededDrawMatchesMathRand pins the closed form to math/rand: for
// every seed class Seed special-cases (0 and multiples of M, signs,
// the int64 extremes) and for random seeds, seededDraw must equal the
// first uniform draw of a freshly seeded source. It also asserts that
// both halves ran: the closed form on most draws, and the fallback on
// Int63n's rejections at 2^61+1.
func TestSeededDrawMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, lehmerMod, -lehmerMod, 2 * lehmerMod, seedOnZero,
		math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		seeds = append(seeds, int64(rng.Uint64()), rng.Int63n(1<<20)-1<<19)
	}
	closed, rejected := 0, 0
	for _, space := range seededDrawSpaces {
		for _, seed := range seeds {
			want := alg.UniformState(rand.New(rand.NewSource(seed)), space)
			if got := seededDraw(seed, space); got != want {
				t.Fatalf("seededDraw(%d, %d) = %d, math/rand draws %d", seed, space, got, want)
			}
			s, ok := closedDraw(seed, space)
			switch {
			case ok && s != want:
				t.Fatalf("closedDraw(%d, %d) = %d, math/rand draws %d", seed, space, s, want)
			case ok:
				closed++
			case space == 1<<61+1:
				rejected++
			case space <= math.MaxInt64:
				// Elsewhere below MaxInt64 a rejection has odds of at
				// most 2^-32 per draw; these seeds meet none.
				t.Fatalf("closedDraw(%d, %d) fell back on an Int63n space", seed, space)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no draw at space 2^61+1 reached the Int63n rejection fallback")
	}
	if frac := float64(rejected) / float64(len(seeds)); frac < 0.15 || frac > 0.35 {
		t.Errorf("rejection fallback at 2^61+1 ran on %.2f of draws, want about 0.25", frac)
	}
	t.Logf("%d closed-form draws, %d rejection fallbacks", closed, rejected)
}

// TestRandomMatchesPerSenderRng holds Random's Message and MessageRow
// to the per-(round, sender) source they used to build, on the same
// View shapes the row suite uses, across rounds and base seeds.
func TestRandomMatchesPerSenderRng(t *testing.T) {
	for _, base := range []int64{0, 7, -3, math.MaxInt64} {
		v := rowTestView(base)
		senders := rowSenders(v)
		row := make([]alg.State, len(senders))
		for round := uint64(0); round < 64; round++ {
			v.Round = round
			Random{}.MessageRow(v, senders, 0, row)
			for j, from := range senders {
				want := uniform(v.perSenderRng(from), v.Space)
				if got := (Random{}).Message(v, from, 2); got != want || row[j] != want {
					t.Fatalf("base %d round %d sender %d: Message %d, MessageRow %d, oracle %d",
						base, round, from, got, row[j], want)
				}
			}
		}
	}
}

// TestRandomAllocsZero pins Random's hot path allocation-free: the
// per-pair source it replaced cost one 5 KB allocation per message.
func TestRandomAllocsZero(t *testing.T) {
	v := rowTestView(5)
	senders := rowSenders(v)
	row := make([]alg.State, len(senders))
	if a := testing.AllocsPerRun(100, func() {
		v.Round++
		for _, from := range senders {
			_ = Random{}.Message(v, from, 0)
		}
	}); a != 0 {
		t.Errorf("Random.Message: %.1f allocs per round, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		v.Round++
		Random{}.MessageRow(v, senders, 0, row)
	}); a != 0 {
		t.Errorf("Random.MessageRow: %.1f allocs per row, want 0", a)
	}
}

// FuzzSeededDraw compares the closed form against the perSenderRng
// oracle on arbitrary (round, sender, base seed, space) views.
func FuzzSeededDraw(f *testing.F) {
	f.Add(uint64(0), 0, int64(0), uint64(12))
	f.Add(uint64(3), 5, int64(-1), uint64(960))
	f.Add(uint64(1<<40), 35, int64(math.MinInt64), uint64(1<<61+1))
	f.Add(^uint64(0), -7, int64(math.MaxInt64), uint64(math.MaxUint64))
	f.Add(uint64(0), 0, int64(lehmerMod), uint64(1<<62))
	f.Fuzz(func(t *testing.T, round uint64, from int, base int64, space uint64) {
		v := &View{Round: round, Space: space}
		v.SetBaseSeed(base)
		want := uniform(v.perSenderRng(from), space)
		if got := seededDraw(v.senderSeed(from), space); got != want {
			t.Fatalf("round %d sender %d base %d space %d: closed form %d, math/rand %d",
				round, from, base, space, got, want)
		}
	})
}
