package phaseking

import (
	"fmt"

	"github.com/synchcount/synchcount/internal/alg"
)

// byzFunc chooses the register value that faulty node from presents to
// receiver to in a consensus round (Infinity is allowed). It is the
// consensus-level analogue of adversary.Adversary.
type byzFunc func(round uint64, from, to int) uint64

// runConsensus executes the full 3(F+2)-round phase king schedule on n
// nodes with a known common round counter — the situation Theorem 1
// engineers via the leader-block vote. It returns the final a-registers
// of all nodes (entries of faulty nodes are their inputs, untouched).
//
// This is the protocol of Table 2 run standalone: it demonstrates (and
// tests) Lemmas 4 and 5 in isolation from the counting machinery.
// Inputs are values in [0, c); faulty[i] marks Byzantine nodes whose
// messages come from byz.
func runConsensus(n, f int, c uint64, inputs []uint64, faulty []bool, byz byzFunc) ([]uint64, error) {
	if n < 1 {
		return nil, fmt.Errorf("phaseking: n = %d < 1", n)
	}
	if 3*f >= n {
		return nil, fmt.Errorf("phaseking: consensus requires F < N/3, got n = %d, f = %d", n, f)
	}
	if len(inputs) != n || len(faulty) != n {
		return nil, fmt.Errorf("phaseking: inputs/faulty length mismatch (n = %d)", n)
	}
	cfg := Config{C: c, Thresholds: Thresholds{Strong: n - f, Weak: f}}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if byz == nil {
		byz = func(uint64, int, int) uint64 { return Infinity }
	}

	regs := make([]Registers, n)
	for i, in := range inputs {
		if in >= c {
			return nil, fmt.Errorf("phaseking: input %d = %d outside [0,%d)", i, in, c)
		}
		regs[i] = Registers{A: in, D: 1}
	}

	rounds := 3 * uint64(f+2)
	next := make([]Registers, n)
	for r := uint64(0); r < rounds; r++ {
		king := int(KingOf(r))
		for v := 0; v < n; v++ {
			if faulty[v] {
				next[v] = regs[v]
				continue
			}
			tally := alg.NewTally(n)
			kingA := Infinity
			for u := 0; u < n; u++ {
				var a uint64
				if faulty[u] {
					a = byz(r, u, v)
					if a != Infinity && a >= c {
						a = Infinity
					}
				} else {
					a = regs[u].A
				}
				tally.Add(a)
				if u == king {
					kingA = a
				}
			}
			next[v] = Step(cfg, regs[v], r, tally, kingA)
		}
		copy(regs, next)
	}

	out := make([]uint64, n)
	for i := range regs {
		out[i] = regs[i].A
	}
	return out, nil
}
