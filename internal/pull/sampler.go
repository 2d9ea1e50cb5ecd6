package pull

import "fmt"

// sampler is the stateless fixed-wiring neighbour sampler behind the
// large-n pulling cells: Target(node, slot) maps a (node, slot) pair to
// a pseudo-random neighbour in [0, n) \ {node} by finalising a
// SplitMix64 mix of the seed and the pair. Because the wiring is a pure
// function, a million-node algorithm carries its entire communication
// graph in 16 bytes — no per-node RNG (~5 KB each) and no materialised
// wire table (O(n·k) ints) — which is what keeps the sparse kernel at
// O(n) memory.
//
// This is exactly the Corollary 5 communication pattern: wires are
// drawn once (here: fixed by the seed) and reused every round, trading
// adaptivity for an oblivious-adversary guarantee.
//
// The draw is a modulo reduction of a 64-bit word, so it carries a
// selection bias of at most 2^-33 for any n < 2^31 — far below
// anything a simulation could resolve.
type sampler struct {
	seed uint64
	n    int
}

// newSampler returns a sampler over [0, n); n must be at least 2 so
// that excluding the caller leaves a non-empty range.
func newSampler(seed int64, n int) (sampler, error) {
	if n < 2 {
		return sampler{}, fmt.Errorf("pull: sampler needs n >= 2, got %d", n)
	}
	return sampler{seed: uint64(seed), n: n}, nil
}

// Target returns the fixed wire target of (node, slot): a value in
// [0, n) different from node, deterministic in (seed, node, slot).
func (s sampler) Target(node, slot int) int {
	z := s.seed + uint64(node)*0x9e3779b97f4a7c15 + uint64(slot)*0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// Draw from [0, n-1) and shift past the caller: excludes self
	// without rejection, keeping Target O(1) and allocation-free.
	t := int(z % uint64(s.n-1))
	if t >= node {
		t++
	}
	return t
}
