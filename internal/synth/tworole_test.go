package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/verify"
)

// roleFunc assigns one of two roles to each node index, extending the
// search beyond fully anonymous algorithms (for which Search finds no
// solutions at any n ≤ 8 with f = 1 — see the package tests). The
// computer-designed algorithms of [5] are id-dependent; two-role tables
// are the smallest symmetric-breaking class.
type roleFunc func(node int) int

// roleParity assigns roles by index parity.
func roleParity(node int) int { return node & 1 }

// roleLeader distinguishes node 0 from everybody else.
func roleLeader(node int) int {
	if node == 0 {
		return 1
	}
	return 0
}

// roleHalf splits nodes into low and high halves; the split point is
// fixed per network size by closure over newTwoRole.
func roleHalf(n int) roleFunc {
	return func(node int) int {
		if node < n/2 {
			return 0
		}
		return 1
	}
}

// twoRole is a single-bit candidate where each node applies the table of
// its role: next[role][s][ones]. The table packs into 4n bits of a
// uint64 (bit index role*2n + s*n + ones).
type twoRole struct {
	n, f  int
	roles []int
	bits  uint64
	name  string
}

var _ alg.Algorithm = (*twoRole)(nil)
var _ alg.Deterministic = (*twoRole)(nil)

// newTwoRole builds the candidate encoded by bits under the given role
// assignment. roleName is used only for display.
func newTwoRole(n, f int, role roleFunc, roleName string, bits uint64) (*twoRole, error) {
	if n < 2 || n > maxN {
		return nil, fmt.Errorf("synth: n = %d outside [2, %d]", n, maxN)
	}
	if f < 0 || 3*f >= n {
		return nil, fmt.Errorf("synth: resilience f = %d needs 0 <= 3f < n = %d", f, n)
	}
	roles := make([]int, n)
	for i := range roles {
		r := role(i)
		if r != 0 && r != 1 {
			return nil, fmt.Errorf("synth: role of node %d is %d, want 0 or 1", i, r)
		}
		roles[i] = r
	}
	mask := uint64(1)<<(4*n) - 1
	return &twoRole{n: n, f: f, roles: roles, bits: bits & mask, name: roleName}, nil
}

// Bits returns the packed transition tables.
func (t *twoRole) Bits() uint64 { return t.bits }

// N implements alg.Algorithm.
func (t *twoRole) N() int { return t.n }

// F implements alg.Algorithm.
func (t *twoRole) F() int { return t.f }

// C implements alg.Algorithm.
func (t *twoRole) C() int { return 2 }

// StateSpace implements alg.Algorithm.
func (t *twoRole) StateSpace() uint64 { return 2 }

// Deterministic implements alg.Deterministic.
func (t *twoRole) Deterministic() bool { return true }

// Entry returns g_role(own, ones).
func (t *twoRole) Entry(role int, own uint64, ones int) uint64 {
	return (t.bits >> (uint(role)*2*uint(t.n) + uint(own&1)*uint(t.n) + uint(ones))) & 1
}

// Step implements alg.Algorithm.
func (t *twoRole) Step(node int, recv []alg.State, _ *rand.Rand) alg.State {
	ones := 0
	for u, st := range recv {
		if u == node {
			continue
		}
		if st&1 == 1 {
			ones++
		}
	}
	return t.Entry(t.roles[node], recv[node], ones)
}

// Output implements alg.Algorithm.
func (t *twoRole) Output(_ int, st alg.State) int { return int(st & 1) }

// String renders both role tables.
func (t *twoRole) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "two-role(%s) n=%d f=%d:", t.name, t.n, t.f)
	for role := 0; role < 2; role++ {
		fmt.Fprintf(&b, " role%d{", role)
		for own := uint64(0); own < 2; own++ {
			fmt.Fprintf(&b, "s=%d:[", own)
			for ones := 0; ones < t.n; ones++ {
				fmt.Fprintf(&b, "%d", t.Entry(role, own, ones))
			}
			b.WriteString("]")
		}
		b.WriteString("}")
	}
	return b.String()
}

// foundTwoRole is one synthesised two-role counter.
type foundTwoRole struct {
	Alg       *twoRole
	WorstTime uint64
}

// searchTwoRole enumerates all two-role candidates under the given role
// assignment. The space is 2^(4n) before pruning; unanimity persistence
// fixes 4(f+1) bits per role, so for f = 1 and n = 6 roughly 2^16
// candidates survive to full model checking.
func searchTwoRole(n, f int, role roleFunc, roleName string, opts Options) ([]foundTwoRole, error) {
	proto, err := newTwoRole(n, f, role, roleName, 0)
	if err != nil {
		return nil, err
	}
	total := uint64(1) << (4 * n)
	var found []foundTwoRole
	for bits := uint64(0); bits < total; bits++ {
		if opts.Progress != nil && bits%(1<<16) == 0 {
			opts.Progress(bits, total)
		}
		cand := &twoRole{n: n, f: f, roles: proto.roles, bits: bits, name: roleName}
		if !pruneTwoRole(cand) {
			continue
		}
		res, err := verify.Check(cand, verify.Options{})
		if err != nil {
			return nil, fmt.Errorf("synth: candidate %#x: %w", bits, err)
		}
		if !res.OK {
			continue
		}
		found = append(found, foundTwoRole{Alg: cand, WorstTime: res.WorstTime})
		if opts.Limit > 0 && len(found) >= opts.Limit {
			break
		}
	}
	return found, nil
}

// pruneTwoRole applies unanimity persistence per role (cf. prune).
func pruneTwoRole(t *twoRole) bool {
	for role := 0; role < 2; role++ {
		for j := 0; j <= t.f; j++ {
			if t.Entry(role, 0, j) != 1 {
				return false
			}
			if t.Entry(role, 1, t.n-1-j) != 0 {
				return false
			}
		}
	}
	return true
}
