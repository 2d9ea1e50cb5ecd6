package ecount

import (
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// stepReference is the map-backed per-node transition: a fresh block
// sub-view, one alg.Tally per block clock read and a fresh
// observed-register vector fed to consensus.Step, recursing through
// stepReference at nested ecount levels. Step and StepAll share the
// pooled dense-tally tail instead, and are held bit-identical to this
// oracle by TestStepMatchesReference, TestBatchStepMatchesStep and
// FuzzECountTransition.
func (e *Counter) stepReference(v int, recv []alg.State, rng *rand.Rand) alg.State {
	i := e.BlockOf(v)
	lo, size := e.blockRange(i)
	sub := e.sub[i]
	space := sub.StateSpace()
	subRecv := make([]alg.State, size)
	for j := 0; j < size; j++ {
		subRecv[j] = e.cdc.Field(recv[lo+j], fieldBlock) % space
	}
	var newSub alg.State
	if nested, ok := sub.(*Counter); ok {
		newSub = nested.stepReference(v-lo, subRecv, rng)
	} else {
		newSub = sub.Step(v-lo, subRecv, rng)
	}

	var match [2]bool
	var instr [2]uint64
	var nextP [2]uint64
	own := recv[v]
	for b := 0; b < 2; b++ {
		p := e.cdc.Field(own, fieldP0+b)
		r, ok := e.readClockReference(b, recv)
		start := e.windowStart(b)
		if p < e.tau && ok && r == (start+p)%e.period {
			match[b] = true
			instr[b] = p
		}
		switch {
		case ok && r == (start+e.period-1)%e.period:
			nextP[b] = 0
		case match[b] && p+1 < e.tau:
			nextP[b] = p + 1
		default:
			nextP[b] = e.pointerIdle()
		}
	}

	regs := e.Registers(own)
	switch {
	case match[0]:
		regs = e.cons.Step(regs, instr[0], e.observedRegisters(recv))
	case match[1]:
		regs = e.cons.Step(regs, instr[1], e.observedRegisters(recv))
	default:
		regs.A = phaseking.Increment(regs.A, e.c)
	}
	aField, dField := regs.Encode(e.c)
	return e.cdc.MustPack(newSub, nextP[0], nextP[1], aField, dField)
}

// observedRegisters extracts the consensus-register reports from a
// received vector, in the encoded form consensus.Step consumes.
func (e *Counter) observedRegisters(recv []alg.State) []uint64 {
	observed := make([]uint64, e.n)
	for u := 0; u < e.n; u++ {
		observed[u] = e.cdc.Field(recv[u], fieldA)
	}
	return observed
}

// readClockReference reads block i's clock from a received vector
// through a map-backed tally: the counter output reported by an
// absolute majority of the block's nodes that also clears the block's
// quorum n_i - f_i, reduced modulo the schedule period.
func (e *Counter) readClockReference(i int, recv []alg.State) (uint64, bool) {
	lo, size := e.blockRange(i)
	sub := e.sub[i]
	space := sub.StateSpace()
	tally := alg.NewTally(size)
	for j := 0; j < size; j++ {
		s := e.cdc.Field(recv[lo+j], fieldBlock) % space
		tally.Add(uint64(sub.Output(j, s)))
	}
	val, ok := tally.Majority()
	if !ok || tally.Count(val) < e.quora[i] {
		return 0, false
	}
	return val % e.period, true
}

// Step executes instruction r (reduced modulo Rounds()) on regs over a
// freshly built map-backed tally. observed[u] is the register value
// node u reported this round in encoded form: values in [0, mod) are
// proposals, anything >= mod is the reset state ⊥. The king of
// instruction r is node ⌊r/3⌋. The function is pure and total:
// arbitrary observed values are legal. It is the oracle for
// StepCounts, which the counter calls with a pooled tally.
func (c *consensus) Step(regs phaseking.Registers, r uint64, observed []uint64) phaseking.Registers {
	r %= c.Rounds()
	tally := alg.NewTally(len(observed))
	for _, a := range observed {
		tally.Add(c.decode(a))
	}
	var kingA uint64 = phaseking.Infinity
	if king := int(phaseking.KingOf(r)); king < len(observed) {
		kingA = c.decode(observed[king])
	}
	return phaseking.Step(c.cfg, regs, r, tally, kingA)
}

// decide unshifts the counting frame after a full sweep: a register
// that ran instructions 0..Rounds()-1 decided the value it would have
// held at instruction 0. The reset state decides the default 0.
func (c *consensus) decide(regs phaseking.Registers) uint64 {
	if regs.A == phaseking.Infinity || regs.A >= c.mod {
		return 0
	}
	return (regs.A + c.mod - c.Rounds()%c.mod) % c.mod
}

// withField returns v mod cdc's space with field i replaced by x
// (reduced mod the field's radix).
func withField(cdc *codec.Codec, v uint64, i int, x uint64) uint64 {
	fields := make([]uint64, cdc.Fields())
	for j := range fields {
		fields[j] = cdc.Field(v, j)
	}
	fields[i] = x % cdc.Radix(i)
	return cdc.MustPack(fields...)
}
