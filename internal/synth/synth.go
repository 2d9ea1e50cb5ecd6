// Package synth re-runs the "computational algorithm design" method
// behind the small computer-designed counters of Table 1 (rows citing
// [4, 5]): it exhaustively enumerates candidate algorithms from a
// restricted class and model-checks each candidate with internal/verify,
// returning every provably correct synchronous 2-counter in the class
// together with its exact worst-case stabilisation time.
//
// The search class is the *symmetric (anonymous) single-bit* algorithms:
// every node runs the same transition function
//
//	g(s, ones) ∈ {0, 1},
//
// where s is the node's own state bit and ones is the number of 1-states
// among the other n-1 received messages. A candidate is thus a table of
// 2n bits, giving a 2^(2n) search space — exactly the kind of space the
// paper notes is amenable to synthesis for small parameters but "does
// not scale". Two bits of the table are forced by unanimity persistence
// (see prune), which cuts the space by 16 before model checking.
//
// Search over this class is the production entry point (the synth
// subcommand and the facade's Synthesise). The two-role extension,
// where each node applies the table of its role (parity, leader or
// half), lives in the package tests only: it backs their negative
// results at n = 4–6 with f = 1, and no command runs it.
package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/verify"
)

// maxN bounds the exhaustive search: 2^(2n) candidates at n = 12 is
// already 16M model-checker runs.
const maxN = 12

// Symmetric is an anonymous single-bit candidate algorithm: the
// transition table next[s][ones] for own bit s and count of ones among
// the other n-1 nodes. It implements alg.Algorithm (a 2-counter).
type Symmetric struct {
	n, f int
	bits uint32
}

var _ alg.Algorithm = (*Symmetric)(nil)
var _ alg.Deterministic = (*Symmetric)(nil)

// newSymmetric builds the candidate encoded by bits: bit (s*n + ones) of
// the word is g(s, ones).
func newSymmetric(n, f int, bits uint32) (*Symmetric, error) {
	if n < 2 || n > maxN {
		return nil, fmt.Errorf("synth: n = %d outside [2, %d]", n, maxN)
	}
	if f < 0 || 3*f >= n {
		return nil, fmt.Errorf("synth: resilience f = %d needs 0 <= 3f < n = %d", f, n)
	}
	if n < 2*f+2 {
		return nil, fmt.Errorf("synth: n = %d too small for f = %d", n, f)
	}
	mask := uint32(1)<<(2*n) - 1
	return &Symmetric{n: n, f: f, bits: bits & mask}, nil
}

// Bits returns the packed transition table.
func (s *Symmetric) Bits() uint32 { return s.bits }

// N implements alg.Algorithm.
func (s *Symmetric) N() int { return s.n }

// F implements alg.Algorithm.
func (s *Symmetric) F() int { return s.f }

// C implements alg.Algorithm.
func (s *Symmetric) C() int { return 2 }

// StateSpace implements alg.Algorithm.
func (s *Symmetric) StateSpace() uint64 { return 2 }

// Deterministic implements alg.Deterministic.
func (s *Symmetric) Deterministic() bool { return true }

// Entry returns g(own, ones).
func (s *Symmetric) Entry(own uint64, ones int) uint64 {
	return uint64(s.bits>>(uint(own&1)*uint(s.n)+uint(ones))) & 1
}

// Step implements alg.Algorithm.
func (s *Symmetric) Step(node int, recv []alg.State, _ *rand.Rand) alg.State {
	ones := 0
	for u, st := range recv {
		if u == node {
			continue
		}
		if st&1 == 1 {
			ones++
		}
	}
	return s.Entry(recv[node], ones)
}

// Output implements alg.Algorithm: the state bit is the output.
func (s *Symmetric) Output(_ int, st alg.State) int { return int(st & 1) }

// String renders the transition table.
func (s *Symmetric) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "g(s,ones) n=%d f=%d:", s.n, s.f)
	for own := uint64(0); own < 2; own++ {
		fmt.Fprintf(&b, " s=%d:[", own)
		for ones := 0; ones < s.n; ones++ {
			fmt.Fprintf(&b, "%d", s.Entry(own, ones))
		}
		b.WriteString("]")
	}
	return b.String()
}

// Complement returns the candidate with the roles of 0 and 1 swapped;
// correctness is invariant under this relabelling.
func (s *Symmetric) Complement() *Symmetric {
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

// Found is one synthesised counter.
type Found struct {
	// Alg is the verified algorithm.
	Alg *Symmetric
	// WorstTime is its exact worst-case stabilisation time (from the
	// model checker).
	WorstTime uint64
}

// Options tune the search.
type Options struct {
	// Limit stops the search after this many verified algorithms
	// (0 = find all).
	Limit int
	// Progress, when non-nil, receives the number of candidates examined
	// every 1<<12 candidates.
	Progress func(done, total uint64)
}

// Search enumerates all symmetric single-bit candidates for n nodes and
// resilience f and returns those that the model checker proves correct,
// ordered by ascending worst-case stabilisation time (ties: ascending
// table encoding).
func Search(n, f int, opts Options) ([]Found, error) {
	if _, err := newSymmetric(n, f, 0); err != nil {
		return nil, err
	}
	total := uint64(1) << (2 * n)
	var found []Found
	for bits := uint64(0); bits < total; bits++ {
		if opts.Progress != nil && bits%(1<<12) == 0 {
			opts.Progress(bits, total)
		}
		cand, _ := newSymmetric(n, f, uint32(bits))
		if !prune(cand) {
			continue
		}
		res, err := verify.Check(cand, verify.Options{})
		if err != nil {
			return nil, fmt.Errorf("synth: candidate %#x: %w", bits, err)
		}
		if !res.OK {
			continue
		}
		found = append(found, Found{Alg: cand, WorstTime: res.WorstTime})
		if opts.Limit > 0 && len(found) >= opts.Limit {
			break
		}
	}
	sortFound(found)
	return found, nil
}

// prune applies necessary conditions that every correct candidate must
// satisfy, cheaply rejecting most of the space:
//
// Unanimity persistence: when all correct nodes hold bit b, a correct
// node observes between n-1-f and n-1 copies of b among the others no
// matter what the f Byzantine nodes send, and must flip to 1-b. Hence
// g(0, j) = 1 for j ≤ f and g(1, n-1-j) = 0 for j ≤ f.
func prune(s *Symmetric) bool {
	for j := 0; j <= s.f; j++ {
		if s.Entry(0, j) != 1 {
			return false
		}
		if s.Entry(1, s.n-1-j) != 0 {
			return false
		}
	}
	return true
}

func sortFound(found []Found) {
	for i := 1; i < len(found); i++ {
		for j := i; j > 0; j-- {
			a, b := found[j-1], found[j]
			if a.WorstTime < b.WorstTime || (a.WorstTime == b.WorstTime && a.Alg.Bits() <= b.Alg.Bits()) {
				break
			}
			found[j-1], found[j] = b, a
		}
	}
}
