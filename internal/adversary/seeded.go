package adversary

import (
	"math"
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Closed form of the first draw from a freshly seeded math/rand source.
//
// random's broadcast value is alg.UniformState(rand.New(rand.NewSource(
// seed)), space): one draw from a source seeded per (round, sender).
// Building that source fills all 607 words of its lagged-Fibonacci
// state (rngSource.Seed in math/rand/rng.go), yet its first output only
// reads two of them. Seed reduces the seed modulo M = 2^31-1 (a
// negative seed gets M added, and 0 becomes 89482311), runs 20 warm-up
// steps of the Lehmer generator x <- 48271·x mod M, and then fills
// vec[i] from steps 21+3i, 22+3i and 23+3i, XORed with rngCooked[i].
// The first Uint64 is vec[333] + vec[606], and step k of the generator
// is x0·48271^k mod M, so six powers of 48271 and two rngCooked
// entries give that word without building the source.

const (
	lehmerMod  = 1<<31 - 1 // M, the Lehmer generator's modulus
	lehmerMul  = 48271     // the Lehmer generator's multiplier
	seedOnZero = 89482311  // Seed's replacement for a seed ≡ 0 (mod M)

	// The two state words the first Uint64 sums (rngSource's feed and
	// tap after one step), and their rngCooked entries, copied from
	// math/rand/rng.go.
	feedSlot   = 333
	tapSlot    = 606
	cookedFeed = -4633371852008891965
	cookedTap  = 4152330101494654406
)

// slotPowers[s][j] is 48271^(21+3·slot+j) mod M for the feed (s = 0)
// and tap (s = 1) slots: the multiplier taking the reduced seed to the
// generator step that supplies the slot's j-th 20-bit lane.
var slotPowers = [2][3]uint64{slotPowersOf(feedSlot), slotPowersOf(tapSlot)}

func slotPowersOf(slot int) [3]uint64 {
	var p [3]uint64
	for j := range p {
		p[j] = lehmerPow(uint64(21 + 3*slot + j))
	}
	return p
}

// lehmerPow returns 48271^k mod M.
func lehmerPow(k uint64) uint64 {
	result, base := uint64(1), uint64(lehmerMul)
	for ; k > 0; k >>= 1 {
		if k&1 == 1 {
			result = result * base % lehmerMod
		}
		base = base * base % lehmerMod
	}
	return result
}

// seededUint64 returns the first Uint64 of rand.NewSource(seed).
func seededUint64(seed int64) uint64 {
	s := seed % lehmerMod
	if s < 0 {
		s += lehmerMod
	}
	if s == 0 {
		s = seedOnZero
	}
	x0 := uint64(s)
	return seededSlot(x0, &slotPowers[0], cookedFeed) + seededSlot(x0, &slotPowers[1], cookedTap)
}

// seededSlot returns one state word as Seed fills it from the reduced
// seed x0: three generator steps packed at bit offsets 40, 20 and 0,
// XORed with the slot's rngCooked entry. Both factors of each product
// are below 2^31, so the products fit in 64 bits.
func seededSlot(x0 uint64, p *[3]uint64, cooked int64) uint64 {
	a, b, c := x0*p[0]%lehmerMod, x0*p[1]%lehmerMod, x0*p[2]%lehmerMod
	return a<<40 ^ b<<20 ^ c ^ uint64(cooked)
}

// closedDraw is seededDraw without its fallback: it reports ok = false
// when alg.UniformState would need more than the source's first word
// (Int63n rejected it, or space exceeds MaxInt64).
func closedDraw(seed int64, space uint64) (s alg.State, ok bool) {
	if space <= 1 {
		return 0, true
	}
	if space > math.MaxInt64 {
		return 0, false
	}
	// Rand.Int63n on the source's first Int63.
	v := int64(seededUint64(seed) & math.MaxInt64)
	n := int64(space)
	if n&(n-1) == 0 {
		return alg.State(v & (n - 1)), true
	}
	if v > int64(math.MaxInt64-(1<<63)%uint64(n)) {
		return 0, false
	}
	return alg.State(v % n), true
}

// seededDraw returns alg.UniformState(rand.New(rand.NewSource(seed)),
// space) without allocating. Draws the closed form cannot finish — an
// Int63n rejection, which needs the source's second word, or a space
// above MaxInt64 — are delegated to exactly that call.
func seededDraw(seed int64, space uint64) alg.State {
	if s, ok := closedDraw(seed, space); ok {
		return s
	}
	return alg.UniformState(rand.New(rand.NewSource(seed)), space)
}
