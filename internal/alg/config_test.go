package alg

import (
	"math/rand"
	"testing"
)

// TestHashConfigIncremental pins the streaming form to the batch form:
// folding words one at a time from the seed must reproduce HashConfig.
func TestHashConfigIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 32; trial++ {
		words := make([]State, rng.Intn(20))
		for i := range words {
			words[i] = State(rng.Uint64())
		}
		h := uint64(configHashOffset)
		for _, w := range words {
			h = hashConfigWord(h, w)
		}
		if got := HashConfig(words); got != h {
			t.Fatalf("incremental fold %#x != batch hash %#x for %v", h, got, words)
		}
	}
}

// TestHashConfigSensitivity checks the properties the fast-forward
// engine leans on: equal vectors hash equal, and the low-entropy
// configurations real runs produce (dense small states, single-slot
// edits, permutations) do not collide.
func TestHashConfigSensitivity(t *testing.T) {
	base := []State{0, 1, 2, 3, 0, 1, 2, 3}
	h0 := HashConfig(base)
	if HashConfig(append([]State(nil), base...)) != h0 {
		t.Fatal("equal vectors must hash equal")
	}
	seen := map[uint64][]State{}
	seen[h0] = base
	// Every single-slot, single-increment edit of the base vector.
	for i := range base {
		edited := append([]State(nil), base...)
		edited[i]++
		h := HashConfig(edited)
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision between %v and %v", prev, edited)
		}
		seen[h] = edited
	}
	// Order sensitivity: a rotation is a different configuration.
	rotated := append(append([]State(nil), base[1:]...), base[0])
	if HashConfig(rotated) == h0 {
		t.Fatal("rotation collided with the base vector")
	}
	// Length sensitivity.
	if HashConfig(base[:7]) == h0 {
		t.Fatal("prefix collided with the full vector")
	}
}
