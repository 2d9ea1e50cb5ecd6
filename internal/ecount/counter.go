package ecount

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/codec"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// splitFunc partitions n nodes with resilience f into block 0 (nodes
// [0, n0)) with resilience f0 and block 1 (nodes [n0, n)) with
// resilience f1, subject to f0 + f1 + 1 = f: whatever the fault
// placement, by pigeonhole at least one block has at most its budget
// of faults, so at least one block counter stabilises.
type splitFunc func(n, f int) (n0, f0, f1 int)

// balancedSplit halves both the node set and the resilience budget at
// every level: recursion depth O(log f), total stabilisation overhead
// O(f) (the per-level O(f_level) overheads telescope geometrically).
// This is the paper's efficient stack.
func balancedSplit(n, f int) (n0, f0, f1 int) {
	// The larger resilience share rides the larger first block, which
	// keeps 3*f_i < n_i whenever 3*f < n (tight for f odd).
	return (n + 1) / 2, f / 2, (f - 1) - f/2
}

// chainSplit peels one fault per level: block 1 is a single node with
// resilience 0, block 0 carries the rest. Depth f, total overhead
// O(f^2) — the natural second stack to compare head-to-head against
// the balanced one.
func chainSplit(n, f int) (n0, f0, f1 int) {
	return n - 1, f - 1, 0
}

// Counter is the derived self-stabilising c-counter of the paper: two
// block counters (recursively constructed) plus a consensus layer over
// all n nodes. It implements alg.Algorithm.
//
// Per-round behaviour of node v in block i:
//
//  1. step the block counter A_i on the block's received sub-states;
//  2. read both blocks' clocks by quorum vote over their reported
//     counter outputs (a stabilised block's clock reads identically at
//     every correct node, because at least n_i - f_i > 2n_i/3 of its
//     nodes broadcast the agreed value);
//  3. advance a per-block sweep pointer: block i's pointer arms when
//     the block's clock reads one short of its window start (period-1
//     for block 0, 2τ-1 for block 1) and advances only while the
//     clock traverses the window consecutively — so a sweep
//     instruction executes only on a clock that demonstrably behaves
//     like a clock, never on a frozen or jumping read (a crashed
//     block stuck at 0 must not reset the network every round);
//  4. if a pointer matches — block 0 sweeps while its clock is in
//     [0, τ), block 1 while its clock is in [2τ, 3τ), block 0 taking
//     priority — execute that instruction of the silent consensus
//     layer on the output register; otherwise free-run the common
//     increment.
//
// Every branch increments the output register exactly once per round,
// and the consensus layer is silent under confident agreement, so once
// a clean sweep driven by a stabilised block's clock has established
// agreement, nothing — phantom sweeps from the corrupt block included
// — can break lockstep counting.
type Counter struct {
	n, f int
	c    uint64

	tau    uint64 // 3(f+2): sweep length of the consensus layer
	period uint64 // 4τ: block counter modulus and schedule period
	n0     int    // block 0 is nodes [0, n0), block 1 is [n0, n)

	sub   [2]alg.Algorithm // block counters, counting modulo period
	quora [2]int           // clock-read quorum n_i - f_i of each block
	cons  *consensus
	cdc   *codec.Codec // fields: block state, p0 ∈ [τ+1], p1 ∈ [τ+1], a ∈ [c+1], d ∈ {0,1}
	bound uint64

	// pool recycles the working set of Step and StepAll (see
	// batch.go) across rounds, live node goroutines and concurrent
	// campaign trials.
	pool sync.Pool
}

// codec field indices of the packed node state.
const (
	fieldBlock = iota // block-counter state
	fieldP0           // sweep pointer for block 0 (τ = idle)
	fieldP1           // sweep pointer for block 1 (τ = idle)
	fieldA            // consensus output register a (c = ⊥)
	fieldD            // consensus confidence bit d
)

var _ alg.Algorithm = (*Counter)(nil)
var _ alg.Deterministic = (*Counter)(nil)
var _ alg.Bound = (*Counter)(nil)

// New builds the balanced-recursion counter: n nodes, resilience
// f < n/3 (f >= 1), counting modulo c, stabilising in O(f) rounds.
func New(n, f, c int) (*Counter, error) { return build(n, f, c, balancedSplit) }

// NewChain builds the chain-recursion counter: same interface and
// resilience, depth-f recursion with an O(f^2) stabilisation bound.
func NewChain(n, f, c int) (*Counter, error) { return build(n, f, c, chainSplit) }

func build(n, f, c int, split splitFunc) (*Counter, error) {
	if f < 1 {
		return nil, fmt.Errorf("ecount: counter needs f >= 1 (use a fault-free base for f = 0), got %d", f)
	}
	if 3*f >= n {
		return nil, fmt.Errorf("ecount: counter requires f < n/3, got n = %d, f = %d", n, f)
	}
	if c < 2 {
		return nil, fmt.Errorf("ecount: counter modulus %d < 2", c)
	}
	tau := 3 * uint64(f+2)
	period := 4 * tau
	n0, f0, f1 := split(n, f)
	n1 := n - n0
	if f0+f1+1 != f {
		return nil, fmt.Errorf("ecount: split resiliences %d+%d+1 != f = %d", f0, f1, f)
	}
	if n0 < 1 || n1 < 1 {
		return nil, fmt.Errorf("ecount: split %d/%d leaves an empty block", n0, n1)
	}
	if f0 < 0 || 3*f0 >= n0 {
		return nil, fmt.Errorf("ecount: block 0 violates f < n/3 (n = %d, f = %d)", n0, f0)
	}
	if f1 < 0 || 3*f1 >= n1 {
		return nil, fmt.Errorf("ecount: block 1 violates f < n/3 (n = %d, f = %d)", n1, f1)
	}
	sub0, err := subCounter(n0, f0, int(period), split)
	if err != nil {
		return nil, fmt.Errorf("ecount: block 0: %w", err)
	}
	sub1, err := subCounter(n1, f1, int(period), split)
	if err != nil {
		return nil, fmt.Errorf("ecount: block 1: %w", err)
	}
	cons, err := newConsensus(n, f, uint64(c))
	if err != nil {
		return nil, err
	}
	subSpace := sub0.StateSpace()
	if s := sub1.StateSpace(); s > subSpace {
		subSpace = s
	}
	cdc, err := codec.New(subSpace, tau+1, tau+1, uint64(c)+1, 2)
	if err != nil {
		return nil, fmt.Errorf("ecount: state space: %w", err)
	}
	subBound := boundOf(sub0)
	if b := boundOf(sub1); b > subBound {
		subBound = b
	}
	return &Counter{
		n: n, f: f, c: uint64(c),
		tau:    tau,
		period: period,
		n0:     n0,
		sub:    [2]alg.Algorithm{sub0, sub1},
		quora:  [2]int{n0 - f0, n1 - f1},
		cons:   cons,
		cdc:    cdc,
		bound:  subBound + 2*period,
	}, nil
}

// subCounter builds a block counter: the fault-free base stabilises in
// one round via max-and-increment (internal/counter.MaxStep); positive
// resiliences recurse.
func subCounter(n, f, c int, split splitFunc) (alg.Algorithm, error) {
	if f == 0 {
		return counter.NewMaxStep(n, c)
	}
	return build(n, f, c, split)
}

func boundOf(a alg.Algorithm) uint64 {
	if b, ok := a.(alg.Bound); ok {
		return b.StabilisationBound()
	}
	return 0
}

// N implements alg.Algorithm.
func (e *Counter) N() int { return e.n }

// F implements alg.Algorithm.
func (e *Counter) F() int { return e.f }

// C implements alg.Algorithm.
func (e *Counter) C() int { return int(e.c) }

// StateSpace implements alg.Algorithm.
func (e *Counter) StateSpace() uint64 { return e.cdc.Space() }

// Deterministic implements alg.Deterministic.
func (e *Counter) Deterministic() bool { return true }

// StabilisationBound implements alg.Bound: once the within-budget
// block's counter has stabilised (recursively bounded), its clock
// opens a sweep window within one period and the sweep completes
// within another — two periods of slack per level, additive down the
// recursion.
func (e *Counter) StabilisationBound() uint64 { return e.bound }

// Tau returns the consensus sweep length 3(f+2).
func (e *Counter) Tau() uint64 { return e.tau }

// Period returns the block counter modulus 4τ.
func (e *Counter) Period() uint64 { return e.period }

// Blocks returns the two block counters.
func (e *Counter) Blocks() [2]alg.Algorithm { return e.sub }

// BlockOf returns the block index of node v.
func (e *Counter) BlockOf(v int) int {
	if v < e.n0 {
		return 0
	}
	return 1
}

// blockRange returns the node range [lo, lo+size) of block i.
func (e *Counter) blockRange(i int) (lo, size int) {
	if i == 0 {
		return 0, e.n0
	}
	return e.n0, e.n - e.n0
}

// windowStart returns the clock value at which block i's sweep window
// opens: block 0 sweeps over clock values [0, τ), block 1 over
// [2τ, 3τ) — phase-shifted so that two stabilised blocks at a generic
// offset keep at least one window unshadowed.
func (e *Counter) windowStart(i int) uint64 {
	if i == 0 {
		return 0
	}
	return 2 * e.tau
}

// pointerIdle is the sweep-pointer field value meaning "no sweep in
// progress" (valid progress values are [0, τ)).
func (e *Counter) pointerIdle() uint64 { return e.tau }

// Step implements alg.Algorithm. It runs on the pooled batch scratch
// (see batch.go), so a step allocates nothing: both block clocks are
// read through dense tallies, the own block's sub-view recurses
// through the block counter's Step, and the shared per-receiver tail
// tallies the consensus registers only when a sweep instruction
// actually executes.
func (e *Counter) Step(v int, recv []alg.State, rng *rand.Rand) alg.State {
	sc := e.getScratch()
	defer e.pool.Put(sc)
	i := e.BlockOf(v)
	var newSub alg.State
	var r [2]uint64
	var ok [2]bool
	for b := 0; b < 2; b++ {
		lo, size := e.blockRange(b)
		sub := e.sub[b]
		space := sub.StateSpace()
		tally := sc.clockTally[b]
		tally.Reset()
		for j := 0; j < size; j++ {
			s := e.cdc.Field(recv[lo+j], fieldBlock) % space
			sc.subBase[j] = s
			tally.Add(uint64(sub.Output(j, s)))
		}
		if b == i {
			newSub = sub.Step(v-lo, sc.subBase[:size], rng)
		}
		r[b], ok[b] = e.readClockTally(b, tally)
	}
	return e.stepReceiver(sc, recv[v], newSub, r, ok, recv)
}

// stepReceiver is the per-receiver tail shared by Step and StepAll.
// Given the receiver's own state, its block-counter result newSub and
// its reads r/ok of both block clocks, it resolves each sweep pointer
// — does it match this round (its block's clock arrived exactly at the
// pointed-to window offset), and what is its next value? — executes
// the matched consensus instruction (block 0 taking priority) or the
// common increment, and packs the next state.
//
// The consensus instruction votes over sc.regTally with the king's
// report from sc.report, and tallyReports fills both only when an
// instruction runs: per-node Step passes its received vector, StepAll
// passes a nil view and has its class's patch row in sc.row.
func (e *Counter) stepReceiver(sc *batchScratch, own, newSub alg.State, r [2]uint64, ok [2]bool, view []alg.State) alg.State {
	var match [2]bool
	var instr [2]uint64
	var nextP [2]uint64
	for b := 0; b < 2; b++ {
		p := e.cdc.Field(own, fieldP0+b)
		start := e.windowStart(b)
		if p < e.tau && ok[b] && r[b] == (start+p)%e.period {
			match[b] = true
			instr[b] = p
		}
		switch {
		case ok[b] && r[b] == (start+e.period-1)%e.period:
			// The clock sits one short of the window: arm.
			nextP[b] = 0
		case match[b] && p+1 < e.tau:
			nextP[b] = p + 1
		default:
			nextP[b] = e.pointerIdle()
		}
	}

	regs := e.Registers(own)
	if match[0] || match[1] {
		ins := instr[0]
		if !match[0] {
			ins = instr[1]
		}
		e.tallyReports(sc, view)
		king := int(phaseking.KingOf(ins))
		regs = e.cons.StepCounts(regs, ins, sc.regTally, sc.report(king))
	} else {
		regs.A = phaseking.Increment(regs.A, e.c)
	}
	aField, dField := regs.Encode(e.c)
	sc.pack = [5]uint64{newSub, nextP[0], nextP[1], aField, dField}
	return e.cdc.MustPack(sc.pack[:]...)
}

// tallyReports makes sc.regTally and sc.report cover the receiver's
// view of the consensus registers. Per-node Step passes its full
// received vector: regTally and regDec are rebuilt from it, and the
// scratch carries no patched senders then (StepAll clears colOf before
// returning it to the pool), so sc.report reads every sender from
// regDec. StepAll passes nil: regTally already holds the correct
// senders' reports, and the class's patch row sc.row is decoded into
// patchReg and added once, for the first member that sweeps; StepAll
// removes it after the class.
func (e *Counter) tallyReports(sc *batchScratch, view []alg.State) {
	if view == nil {
		if !sc.rowTallied {
			for col, s := range sc.row {
				dec := e.cons.DecodeReport(e.cdc.Field(s, fieldA))
				sc.patchReg[col] = dec
				sc.regTally.Add(dec)
			}
			sc.rowTallied = true
		}
		return
	}
	sc.regTally.Reset()
	for u := 0; u < e.n; u++ {
		dec := e.cons.DecodeReport(e.cdc.Field(view[u], fieldA))
		sc.regDec[u] = dec
		sc.regTally.Add(dec)
	}
}

// Output implements alg.Algorithm: the consensus register, with the
// reset state mapped to 0.
func (e *Counter) Output(_ int, s alg.State) int {
	a := e.cdc.Field(s, fieldA)
	if a >= e.c {
		return 0
	}
	return int(a)
}

// Registers decodes the consensus-layer registers from a packed state.
func (e *Counter) Registers(s alg.State) phaseking.Registers {
	return phaseking.DecodeRegisters(e.cdc.Field(s, fieldA), e.cdc.Field(s, fieldD), e.c)
}

// BlockState extracts the block-counter state from a packed state.
func (e *Counter) BlockState(s alg.State) alg.State { return e.cdc.Field(s, fieldBlock) }

// SweepPointer extracts block i's sweep pointer from a packed state;
// ok is false when the pointer is idle.
func (e *Counter) SweepPointer(i int, s alg.State) (uint64, bool) {
	p := e.cdc.Field(s, fieldP0+i)
	return p, p < e.tau
}

// Encode packs a block-counter state and consensus registers into a
// node state; exposed for tests and construction-aware adversaries.
func (e *Counter) Encode(v int, blockState alg.State, regs phaseking.Registers) (alg.State, error) {
	if blockState >= e.sub[e.BlockOf(v)].StateSpace() {
		return 0, fmt.Errorf("ecount: block state %d outside space %d", blockState, e.sub[e.BlockOf(v)].StateSpace())
	}
	aField, dField := regs.Encode(e.c)
	return e.cdc.Pack(blockState, e.pointerIdle(), e.pointerIdle(), aField, dField)
}
