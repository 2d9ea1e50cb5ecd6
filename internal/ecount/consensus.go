// Package ecount implements the constructions of the follow-up paper
//
//	Christoph Lenzen, Joel Rybicki:
//	"Efficient Counting with Optimal Resilience" (arXiv:1508.02535)
//
// in the (X, g, h) formalism of this repository. Where the source
// paper's Theorem 1 multiplies stabilisation time by 3(F+2)(2m)^k per
// resilience-boosting level, the follow-up trades the leader-pointer
// cycling for consensus: the node set is split into two blocks whose
// resiliences sum to f-1, so that by pigeonhole at least one block runs
// within its fault budget; the stabilised block's self-stabilising
// clock then schedules network-wide *silent consensus* sweeps that
// establish — and, by silence, preserve — agreement on the output
// counter. Each level adds only O(f) rounds, which telescopes to O(f)
// total stabilisation time for the balanced recursion.
//
// Counter, the derived self-stabilising c-counter (see counter.go), is
// the exported piece; consensus, the silent once-consensus building
// block it runs, stays inside the package.
//
// Scope note: the repository's conformance suite (internal/registry)
// checks the declared bounds empirically against the built-in adversary
// grid; the worst-case guarantees against a fully adaptive adversary —
// which need the paper's complete silent-consensus machinery and
// proofs — are the paper's.
package ecount

import (
	"fmt"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// consensus is the silent once-consensus building block of the
// construction: a phase-king sweep of 3(f+2) instructions over n nodes
// tolerating f < n/3 Byzantine faults, agreeing on a value modulo mod.
//
// The sweep runs in the *counting frame*: every instruction increments
// the register once, so a register holding v at instruction 0 holds
// v + r (mod mod) at instruction r in an undisturbed execution. This
// is exactly what the derived counter needs — agreement on a value
// that advances by one per round — and one-shot consensus on static
// inputs is recovered by unshifting the frame (Decide).
//
// Silence (the property the composition of the paper rests on): when
// every correct node's register holds the same value with the
// confidence bit set, no instruction — executed at any index, in any
// per-node interleaving — changes anything beyond the common
// increment. A corrupt block scheduling phantom sweeps therefore
// cannot break agreement once it is established; see
// TestConsensusSilence.
type consensus struct {
	n, f int
	mod  uint64
	cfg  phaseking.Config
}

// newConsensus returns the building block for n nodes, f < n/3 faults,
// agreeing modulo mod >= 2.
func newConsensus(n, f int, mod uint64) (*consensus, error) {
	if f < 0 {
		return nil, fmt.Errorf("ecount: negative resilience f = %d", f)
	}
	if 3*f >= n {
		return nil, fmt.Errorf("ecount: consensus requires f < n/3, got n = %d, f = %d", n, f)
	}
	if f+2 > n {
		return nil, fmt.Errorf("ecount: need f+2 <= n king candidates, got n = %d, f = %d", n, f)
	}
	if mod < 2 {
		return nil, fmt.Errorf("ecount: consensus modulus %d < 2", mod)
	}
	c := &consensus{
		n: n, f: f, mod: mod,
		cfg: phaseking.Config{
			C: mod,
			Thresholds: phaseking.Thresholds{
				Strong: n - f,
				Weak:   f,
			},
		},
	}
	if err := c.cfg.Validate(); err != nil {
		return nil, fmt.Errorf("ecount: %w", err)
	}
	return c, nil
}

// N returns the number of participating nodes.
func (c *consensus) N() int { return c.n }

// F returns the tolerated number of Byzantine faults.
func (c *consensus) F() int { return c.f }

// Mod returns the agreement modulus.
func (c *consensus) Mod() uint64 { return c.mod }

// Rounds returns the sweep length 3(f+2): three rounds for each of the
// f+2 king candidates, of which at least two are correct.
func (c *consensus) Rounds() uint64 { return 3 * uint64(c.f+2) }

// Init returns registers encoding input v at instruction 0 of the
// counting frame, with the confidence bit clear.
func (c *consensus) Init(v uint64) phaseking.Registers {
	return phaseking.Registers{A: v % c.mod, D: 0}
}

// StepCounts executes instruction r (reduced modulo Rounds()) on regs,
// given the round's tally of decoded register reports (keys as
// produced by DecodeReport) and the king's decoded report; the king of
// instruction r is node ⌊r/3⌋. Callers keep the tally in pooled
// storage — the counter shares one across all receivers of a batch
// round — so no map is built per node. The function is pure and total:
// arbitrary reports are legal.
func (c *consensus) StepCounts(regs phaseking.Registers, r uint64, tally alg.Counts, kingA uint64) phaseking.Registers {
	return phaseking.Step(c.cfg, regs, r%c.Rounds(), tally, kingA)
}

// DecodeReport maps an encoded register report to the tally key space
// consumed by StepCounts: finite proposals are their own key,
// anything at or above the modulus is the reset state ⊥ (Infinity).
func (c *consensus) DecodeReport(a uint64) uint64 { return c.decode(a) }

// Decide unshifts the counting frame after a full sweep: a register
// that ran instructions 0..Rounds()-1 decided the value it would have
// held at instruction 0. The reset state decides the default 0.
func (c *consensus) Decide(regs phaseking.Registers) uint64 {
	if regs.A == phaseking.Infinity || regs.A >= c.mod {
		return 0
	}
	return (regs.A + c.mod - c.Rounds()%c.mod) % c.mod
}

// decode maps an encoded register report to the tally key space of
// internal/phaseking: finite proposals are their own key, everything
// at or above the modulus is ⊥.
func (c *consensus) decode(a uint64) uint64 {
	if a >= c.mod {
		return phaseking.Infinity
	}
	return a
}
