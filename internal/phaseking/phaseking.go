// Package phaseking implements the phase king protocol of Berman, Garay
// and Perry [1], in the self-stabilising formulation of Table 2 of the
// paper: a counting-oriented variant whose output register a[v] ranges
// over [C] ∪ {∞}, with ∞ acting as a "reset state", plus an auxiliary
// confidence bit d[v].
//
// The engine is deliberately communication-agnostic: callers supply a
// Tally of the a-values they observed this round (however they obtained
// them — full broadcast in internal/boost, random samples in
// internal/pull) together with the thresholds that play the roles of
// N−F and F. This is what lets Theorem 1 and its sampled variant
// (Theorem 4) share one verified implementation.
//
// The package tests also run the protocol standalone: runConsensus
// executes the full 3(F+2)-round schedule on n nodes with a common
// round counter, demonstrating Lemmas 4 and 5 apart from the counting
// machinery. That run is test-only; the counters step the engine
// themselves.
package phaseking

import (
	"fmt"

	"github.com/synchcount/synchcount/internal/alg"
)

// Infinity is the reset value ∞ of the output register. Registers are
// encoded with values in [0, C] where C itself denotes ∞, so that the
// register fits a radix-(C+1) codec field exactly as the paper's space
// bound ⌈log(C+1)⌉ requires.
const Infinity = ^uint64(0)

// Registers holds the per-node phase king state: the output register
// a ∈ [C] ∪ {∞} and the confidence bit d.
type Registers struct {
	// A is the output register; Infinity means ∞.
	A uint64
	// D is the auxiliary register d ∈ {0,1}.
	D uint64
}

// Encode packs the registers into a codec field pair (a', d) with
// a' ∈ [0, C] where a' = C encodes ∞.
func (r Registers) Encode(c uint64) (aField, dField uint64) {
	a := r.A
	if a == Infinity || a > c {
		a = c
	}
	return a, r.D & 1
}

// DecodeRegisters unpacks codec fields into Registers.
func DecodeRegisters(aField, dField, c uint64) Registers {
	r := Registers{A: aField, D: dField & 1}
	if aField >= c {
		r.A = Infinity
	}
	return r
}

// Thresholds parameterises the two quorum checks of the instruction sets.
// In the deterministic broadcast setting, Strong = N−F and Weak = F
// ("more than F" means count > Weak). In the sampled setting of Section 5
// they become ⌈2/3·M⌉ and ⌈1/3·M⌉ respectively.
type Thresholds struct {
	// Strong is the agreement quorum: counts >= Strong certify a value.
	Strong int
	// Weak is the contamination bound: counts > Weak cannot consist of
	// faulty reports alone.
	Weak int
}

// Config fixes the protocol parameters.
type Config struct {
	// C is the counter modulus the protocol agrees on.
	C uint64
	// Thresholds are the quorum sizes (see Thresholds).
	Thresholds Thresholds
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.C < 2 {
		return fmt.Errorf("phaseking: counter modulus %d < 2", c.C)
	}
	if c.Thresholds.Strong <= 0 {
		return fmt.Errorf("phaseking: strong threshold %d must be positive", c.Thresholds.Strong)
	}
	if c.Thresholds.Weak < 0 {
		return fmt.Errorf("phaseking: weak threshold %d must be non-negative", c.Thresholds.Weak)
	}
	return nil
}

// Increment applies the paper's guarded increment: a ← a+1 mod C when
// a ≠ ∞, no action otherwise.
func Increment(a, c uint64) uint64 {
	if a == Infinity {
		return Infinity
	}
	return (a + 1) % c
}

// instructionPhase identifies which of the three instruction sets a round
// index selects: round index R executes instruction set I_R where
// R = 3ℓ + phase for king ℓ.
func instructionPhase(r uint64) uint64 { return r % 3 }

// KingOf returns the king index ℓ for round index R.
func KingOf(r uint64) uint64 { return r / 3 }

// Step executes instruction set I_R on the given registers.
//
// Inputs:
//   - regs: the node's registers at the start of the round;
//   - r: the round index R ∈ [3(F+2)) selecting the instruction set;
//   - tally: counts of the a-values observed this round (finite values
//     are their own keys; ∞ must be tallied under the key Infinity);
//   - kingA: the a-value observed from king ℓ = KingOf(r) this round
//     (Infinity if the king reported ∞ or garbage).
//
// It returns the updated registers. The function is pure.
//
// The tally is consumed through the read-only alg.Counts interface, so
// callers may supply the map-backed alg.Tally or the slice-backed
// alg.DenseTally of the vectorized kernel interchangeably.
func Step(cfg Config, regs Registers, r uint64, tally alg.Counts, kingA uint64) Registers {
	switch instructionPhase(r) {
	case 0:
		// I_{3ℓ}: 1. If fewer than Strong nodes sent a[v], set a[v] ← ∞.
		//         2. increment a[v].
		if tally.Count(regs.A) < cfg.Thresholds.Strong {
			regs.A = Infinity
		}
		regs.A = Increment(regs.A, cfg.C)
	case 1:
		// I_{3ℓ+1}: 1. z_j = number of j values received.
		//           2. If z_{a[v]} >= Strong, d[v] ← 1 else d[v] ← 0.
		//           3. a[v] ← min{j : z_j > Weak}, where ∞ is the largest
		//              value and the register resets to ∞ when no value
		//              clears the threshold.
		//           4. increment a[v].
		if tally.Count(regs.A) >= cfg.Thresholds.Strong {
			regs.D = 1
		} else {
			regs.D = 0
		}
		// Since Infinity is the maximal key, the minimum over all
		// qualifying keys is finite unless ∞ is the only qualifier; both
		// "only ∞ qualifies" and "nothing qualifies" leave the register
		// at ∞.
		if v, ok := tally.MinValueWithCountAbove(cfg.Thresholds.Weak); ok && v != Infinity {
			regs.A = v % cfg.C
		} else {
			regs.A = Infinity
		}
		regs.A = Increment(regs.A, cfg.C)
	case 2:
		// I_{3ℓ+2}: 1. If a[v] = ∞ or d[v] = 0, set a[v] ← min{C, a[ℓ]}.
		//           2. d[v] ← 1 and increment a[v].
		//
		// min{C, ∞} = C, a value outside [C]; the subsequent increment
		// computes (C+1) mod C = 1. What matters for Lemma 4 is only that
		// every resetting node derives the *same* value from the king's
		// report, which this arithmetic guarantees.
		a := regs.A
		if a == Infinity || regs.D == 0 {
			if kingA == Infinity || kingA >= cfg.C {
				a = cfg.C
			} else {
				a = kingA
			}
		}
		regs.A = (a + 1) % cfg.C
		regs.D = 1
	}
	return regs
}
