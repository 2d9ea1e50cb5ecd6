package synth

// complement returns the candidate with the roles of 0 and 1 swapped;
// correctness is invariant under this relabelling.
func (s *Symmetric) complement() *Symmetric {
	var bits uint32
	for own := uint64(0); own < 2; own++ {
		for ones := 0; ones < s.n; ones++ {
			// g'(s, ones) = 1 - g(1-s, n-1-ones)
			v := 1 - s.Entry(1-own, s.n-1-ones)
			bits |= uint32(v) << (uint(own)*uint(s.n) + uint(ones))
		}
	}
	out, _ := newSymmetric(s.n, s.f, bits)
	return out
}
