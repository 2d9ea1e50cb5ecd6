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

// appendAlg is a stub algorithm with hidden configuration words.
type appendAlg struct {
	Algorithm
	hidden []State
}

func (a appendAlg) AppendConfig(dst []State) []State { return append(dst, a.hidden...) }

// plainAlg implements Algorithm minimally and carries no hidden state.
type plainAlg struct{}

func (plainAlg) N() int                              { return 2 }
func (plainAlg) F() int                              { return 0 }
func (plainAlg) C() int                              { return 2 }
func (plainAlg) StateSpace() uint64                  { return 2 }
func (plainAlg) Step(int, []State, *rand.Rand) State { return 0 }
func (plainAlg) Output(int, State) int               { return 0 }

// TestAppendConfig checks the capture helper: the explicit state
// vector always leads, and configCapturer words follow when the
// algorithm exposes them.
func TestAppendConfig(t *testing.T) {
	states := []State{4, 5}
	plain := AppendConfig(plainAlg{}, states, nil)
	if len(plain) != 2 || plain[0] != 4 || plain[1] != 5 {
		t.Fatalf("plain capture = %v, want [4 5]", plain)
	}
	withHidden := AppendConfig(appendAlg{plainAlg{}, []State{9}}, states, nil)
	if len(withHidden) != 3 || withHidden[2] != 9 {
		t.Fatalf("hidden capture = %v, want [4 5 9]", withHidden)
	}
	// dst reuse must append, not clobber.
	reused := AppendConfig(plainAlg{}, states, make([]State, 0, 8))
	if len(reused) != 2 {
		t.Fatalf("reused capture = %v", reused)
	}
}
