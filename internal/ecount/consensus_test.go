package ecount

import (
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/phaseking"
)

// runSweep executes one clean, synchronised sweep: correct nodes step
// instructions 0..Rounds()-1 in lockstep while faulty nodes report
// per-receiver values drawn by byz. It returns the final registers of
// the correct nodes (entries of faulty nodes are zero).
func runSweep(c *consensus, regs []phaseking.Registers, faulty []bool, byz func(rng *rand.Rand) uint64, rng *rand.Rand) []phaseking.Registers {
	n := c.n
	next := make([]phaseking.Registers, n)
	for r := uint64(0); r < c.Rounds(); r++ {
		for v := 0; v < n; v++ {
			if faulty[v] {
				continue
			}
			observed := make([]uint64, n)
			for u := 0; u < n; u++ {
				if faulty[u] {
					observed[u] = byz(rng)
				} else {
					observed[u], _ = regs[u].Encode(c.mod)
				}
			}
			next[v] = c.Step(regs[v], r, observed)
		}
		copy(regs, next)
	}
	return regs
}

func TestConsensusUnanimousValidityAndSilence(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}} {
		c, err := newConsensus(tc.n, tc.f, 16)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for input := uint64(0); input < 3; input++ {
			for trial := 0; trial < 4; trial++ {
				faulty := make([]bool, tc.n)
				for i := 0; i < tc.f; i++ {
					faulty[rng.Intn(tc.n)] = true
				}
				regs := make([]phaseking.Registers, tc.n)
				for v := range regs {
					regs[v] = phaseking.Registers{A: input % c.mod}
				}
				// Track silence: with unanimous inputs no correct
				// register may ever reset or diverge from the counting
				// frame.
				snapshot := append([]phaseking.Registers(nil), regs...)
				regs = runSweep(c, regs, faulty, func(r *rand.Rand) uint64 { return r.Uint64() }, rng)
				for v := range regs {
					if faulty[v] {
						continue
					}
					if got := c.decide(regs[v]); got != input {
						t.Fatalf("n=%d f=%d input=%d: node %d decided %d", tc.n, tc.f, input, v, got)
					}
					want := (snapshot[v].A + c.Rounds()) % c.mod
					if regs[v].A != want {
						t.Fatalf("n=%d f=%d input=%d: node %d left the counting frame: a=%d want %d",
							tc.n, tc.f, input, v, regs[v].A, want)
					}
				}
			}
		}
	}
}

func TestConsensusAgreementMixedInputs(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}} {
		c, err := newConsensus(tc.n, tc.f, 8)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 20; trial++ {
			faulty := make([]bool, tc.n)
			for i := 0; i < tc.f; i++ {
				faulty[rng.Intn(tc.n)] = true
			}
			regs := make([]phaseking.Registers, tc.n)
			for v := range regs {
				regs[v] = phaseking.Registers{A: uint64(rng.Intn(8)) % c.mod}
				if rng.Intn(4) == 0 {
					regs[v].A = phaseking.Infinity // adversarial initial reset
				}
			}
			regs = runSweep(c, regs, faulty, func(r *rand.Rand) uint64 { return r.Uint64() % 10 }, rng)
			decision := uint64(0)
			first := true
			for v := range regs {
				if faulty[v] {
					continue
				}
				d := c.decide(regs[v])
				if d >= c.mod {
					t.Fatalf("decision %d outside [0,%d)", d, c.mod)
				}
				if first {
					decision, first = d, false
				} else if d != decision {
					t.Fatalf("n=%d f=%d trial %d: decisions disagree: %d vs %d", tc.n, tc.f, trial, decision, d)
				}
			}
		}
	}
}

// TestConsensusSilenceArbitraryScheduling is the property the counter
// composition rests on: once every correct node holds the same value
// with the confidence bit set, stepping each node with an *arbitrary,
// per-node* instruction index and arbitrary Byzantine reports
// preserves lockstep counting and confidence.
func TestConsensusSilenceArbitraryScheduling(t *testing.T) {
	c, err := newConsensus(7, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	faulty := []bool{true, false, false, true, false, false, false}
	val := uint64(5)
	regs := make([]phaseking.Registers, 7)
	for v := range regs {
		regs[v] = phaseking.Registers{A: val, D: 1}
	}
	for round := 0; round < 300; round++ {
		next := make([]phaseking.Registers, 7)
		for v := 0; v < 7; v++ {
			if faulty[v] {
				continue
			}
			observed := make([]uint64, 7)
			for u := 0; u < 7; u++ {
				if faulty[u] {
					observed[u] = rng.Uint64() % 20
				} else {
					observed[u], _ = regs[u].Encode(c.mod)
				}
			}
			next[v] = c.Step(regs[v], uint64(rng.Intn(int(c.Rounds()))), observed)
		}
		copy(regs, next)
		val = (val + 1) % c.mod
		for v := range regs {
			if faulty[v] {
				continue
			}
			if regs[v].A != val || regs[v].D != 1 {
				t.Fatalf("round %d: node %d broke silence: a=%d d=%d, want a=%d d=1",
					round, v, regs[v].A, regs[v].D, val)
			}
		}
	}
}

func TestNewConsensusValidation(t *testing.T) {
	for _, tc := range []struct {
		n, f int
		mod  uint64
	}{
		{3, 1, 4},  // 3f >= n
		{4, -1, 4}, // negative f
		{4, 1, 1},  // modulus too small
		{1, 0, 4},  // fewer nodes than king candidates
	} {
		if _, err := newConsensus(tc.n, tc.f, tc.mod); err == nil {
			t.Errorf("newConsensus(%d, %d, %d) succeeded, want error", tc.n, tc.f, tc.mod)
		}
	}
	c, err := newConsensus(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Rounds() != 9 {
		t.Fatalf("Rounds() = %d, want 9", c.Rounds())
	}
}
