package adversary

import "math/rand"

// perSenderRng is the per-(round, sender) source Random used to build
// for every message: a fresh math/rand source seeded with senderSeed.
// Random now evaluates the first draw of that source in closed form
// (seededDraw); this is the oracle it is held to by
// TestSeededDrawMatchesMathRand, TestRandomMatchesPerSenderRng and
// FuzzSeededDraw.
func (v *View) perSenderRng(from int) *rand.Rand {
	return rand.New(rand.NewSource(v.senderSeed(from)))
}
