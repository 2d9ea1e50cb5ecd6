package alg

// Configuration hashing for the simulator's periodicity-aware
// fast-forward engine (internal/sim).
//
// A deterministic algorithm under a snapshottable adversary evolves the
// global configuration as a pure function, so every trajectory is
// eventually periodic. The engine detects the cycle by hashing the
// configuration every round and fast-forwards the verification tail
// analytically. The configuration is the dense state vector alone: the
// (X, g, h) formalism makes per-node state explicit — Step is a pure
// function of the received vector.
//
// HashConfig / hashConfigWord are the cheap incremental configuration
// hash. Collisions are harmless — the engine verifies every hash match
// by full configuration comparison before trusting it — so the hash
// only needs to be fast and well-mixed, not cryptographic.

// configHashOffset/configHashPrime are the FNV-1a 64-bit parameters;
// each word is avalanched through a splitmix64-style finalizer before
// entering the chain, so single-bit state differences flip about half
// of the digest even for the tiny state spaces the baselines use.
const (
	configHashOffset = 0xcbf29ce484222325
	configHashPrime  = 0x100000001b3
)

// HashConfig hashes a configuration word vector. Equal vectors hash
// equal; the engine treats a hash match only as a cycle *candidate*
// and verifies it by full comparison, so collisions cost one compare,
// never correctness.
func HashConfig(words []State) uint64 {
	h := uint64(configHashOffset)
	for _, w := range words {
		h = hashConfigWord(h, w)
	}
	return h
}

// hashConfigWord folds one configuration word into a running digest —
// the incremental form of HashConfig for callers that stream words.
// HashConfig(ws) == foldl hashConfigWord over ws starting from the
// offset basis.
func hashConfigWord(h uint64, w State) uint64 {
	return (h ^ mix64(w)) * configHashPrime
}

// mix64 is the splitmix64 output finalizer: a cheap invertible
// avalanche so that dense low-entropy states (0, 1, 2, ...) spread
// over the full 64-bit space before the FNV chain combines them.
func mix64(w uint64) uint64 {
	w ^= w >> 30
	w *= 0xbf58476d1ce4e5b9
	w ^= w >> 27
	w *= 0x94d049bb133111eb
	w ^= w >> 31
	return w
}
