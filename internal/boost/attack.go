package boost

import (
	"fmt"
	"sync"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// Saboteur is a construction-aware Byzantine strategy against a boosted
// counter. Unlike the generic adversaries, it decodes the construction's
// state layout and attacks its two voting mechanisms directly, sending
// each receiver a *different* forged state:
//
//   - leader-vote tipping: the base-counter part is forged so that the
//     sender's block appears to point at leader block (to mod m) — even
//     and odd receivers therefore resolve near-majority B votes to
//     different leader blocks, and then read their round counter R from
//     different blocks;
//   - round-counter splitting: the forged counter's r component is copied
//     from a correct node of leader block (to mod m), so receivers that
//     fall for different leaders also see mutually consistent — but
//     different — R values and execute different phase king instruction
//     sets;
//   - quorum splitting: the phase king registers carry the correct
//     majority value to even receivers and its successor to odd
//     receivers, with cleared confidence bits, keeping tallies pinned
//     near the N−F and F thresholds.
//
// Theorem 1 holds against *all* adversaries, so the construction must
// (and does) ride it out; the Saboteur exists to measure how far the
// observed stabilisation time can be pushed toward the analytical bound.
// It is effective exactly until Lemma 2 forces all correct blocks to
// point at one leader for τ rounds, at which point the B majority is
// beyond tipping.
type Saboteur struct {
	// C is the counter under attack.
	C *Counter
}

var _ adversary.Adversary = Saboteur{}

// Name implements adversary.Adversary.
func (s Saboteur) Name() string { return "saboteur" }

// SnapshotPeriod is read by adversary.SnapshotPeriodOf: the forge chain
// is a pure function of the start-of-round states and the fault mask —
// it never consults the adversary randomness stream or the absolute
// round number (the recycled forgeScratch is call-scoped working
// storage, not state) — so the fast-forward engine may cycle-detect
// under the saboteur.
func (s Saboteur) SnapshotPeriod() uint64 { return 1 }

// Message implements adversary.Adversary.
func (s Saboteur) Message(v *adversary.View, from, to int) alg.State {
	sc := forgePool.Get().(*forgeScratch)
	st := forgeLevel(s.C, v.States, v, 0, from, to, 0, false, sc, 0)
	forgePool.Put(sc)
	return st
}

// forgeScratch recycles the per-message working set of the forge
// chain: one majority tally and one sub-state buffer per recursion
// level, instead of fresh allocations for every point-to-point
// message.
type forgeScratch struct {
	tally *alg.DenseTally
	subs  [][]alg.State
}

var forgePool = sync.Pool{New: func() any {
	return &forgeScratch{tally: alg.NewDenseTally(0)}
}}

// sub returns the scratch sub-state buffer for a recursion depth,
// sized to n.
func (sc *forgeScratch) sub(depth, n int) []alg.State {
	for len(sc.subs) <= depth {
		sc.subs = append(sc.subs, nil)
	}
	if cap(sc.subs[depth]) < n {
		sc.subs[depth] = make([]alg.State, n)
	}
	return sc.subs[depth][:n]
}

// forgeLevel builds a forged state for the counter b (one level of the
// recursion), as presented by local sender fromLoc to global receiver
// to. offset maps local node indices to global ones. When forceA is
// set, the level's a-register is pinned to aVal — this happens on inner
// levels, whose a-register doubles as the parent's block-counter value
// and carries the leader-vote tip.
func forgeLevel(b *Counter, states []alg.State, v *adversary.View, offset, fromLoc, to int, aVal uint64, forceA bool, sc *forgeScratch, depth int) alg.State {
	// Registers: pinned (inner levels) or majority±parity (top level).
	var regs phaseking.Registers
	if forceA {
		regs = phaseking.Registers{A: aVal % b.cOut, D: uint64(to) & 1}
	} else {
		tally := sc.tally
		tally.Resize(b.cOut)
		for uLoc, st := range states {
			if g := offset + uLoc; g < len(v.Faulty) && v.Faulty[g] {
				continue
			}
			tally.Add(b.Registers(st).A)
		}
		majA, ok := tally.Majority()
		if !ok || majA == phaseking.Infinity {
			majA = 0
		}
		regs = phaseking.Registers{A: majA, D: 0}
		if to%2 == 1 {
			regs.A = (majA + 1) % b.cOut
		}
	}

	// Block-counter value for this level's base: point the sender's
	// block at leader block (to mod m), with the r component copied from
	// a correct member of that leader block so the receiver's R vote
	// coheres with the leader it is being pushed toward.
	target := uint64(to) % uint64(b.m)
	r := uint64(0)
	for j := 0; j < b.n; j++ {
		uLoc := int(target)*b.n + j
		if g := offset + uLoc; g < len(v.Faulty) && v.Faulty[g] {
			continue
		}
		if uLoc < len(states) {
			r, _, _ = b.Leader(uLoc, states[uLoc])
		}
		break
	}
	fromBlock := b.BlockOf(fromLoc)
	y := target * b.pow2m[fromBlock]
	val := (y*b.tau + r) % b.blockMod[fromBlock]

	// Base state whose output is val: recurse through boosted levels
	// (tipping each level's own leader vote on the way down), or encode
	// directly for value-identical bases.
	var baseSt alg.State
	switch base := b.base.(type) {
	case *Counter:
		subStates := sc.sub(depth, b.n)
		for j := 0; j < b.n; j++ {
			subStates[j] = b.BaseState(states[fromBlock*b.n+j])
		}
		baseSt = forgeLevel(base, subStates, v, offset+fromBlock*b.n, b.IndexInBlock(fromLoc), to, val, true, sc, depth+1)
	default:
		baseSt = val % b.base.StateSpace()
	}
	st, err := b.Encode(baseSt, regs)
	if err != nil {
		// Unreachable for well-formed counters (the forged components
		// are reduced into range above); fall back to a constant rather
		// than echoing an arbitrary — possibly faulty — node's state,
		// preserving the snapshot no-faulty-reads contract.
		return 0
	}
	return st
}

// CraftNodeState builds a node state whose base chain outputs blockVal
// and whose phase king registers are regs — the hook for adversarially
// chosen initial configurations. It recurses through stacked boosted
// counters (each level's output is its a-register); at the bottom it
// requires a base whose state is its own output value (counter.Trivial
// or counter.MaxStep).
func (b *Counter) CraftNodeState(blockVal uint64, regs phaseking.Registers) (alg.State, error) {
	baseState, err := stateForOutput(b.base, blockVal)
	if err != nil {
		return 0, err
	}
	return b.Encode(baseState, regs)
}

func stateForOutput(a alg.Algorithm, val uint64) (alg.State, error) {
	val %= uint64(a.C())
	switch base := a.(type) {
	case *Counter:
		return base.CraftNodeState(0, phaseking.Registers{A: val, D: 1})
	case *counter.Trivial, *counter.MaxStep:
		return val, nil
	default:
		return 0, fmt.Errorf("boost: cannot craft states for base type %T", a)
	}
}

// WorstInit produces an adversarially staggered initial configuration
// for the counter, recursively through every level of the construction:
// at each level, block i's counter starts right after a leader-window
// boundary with pointer (i+1) mod m — so sibling blocks begin pointing
// at *different* leaders and hold them for a full c_{i-1} rounds — and
// round counters r are staggered across blocks to spoil the R vote. Top
// level phase king registers disagree node by node with cleared
// confidence bits; inner registers are pinned to the staggered counter
// values they encode. Combined with the Saboteur and a fault set that
// breaks one leader-candidate block, this drives the measured
// stabilisation time toward the τ(2m)^k term of the Theorem 1 bound.
func (b *Counter) WorstInit() ([]alg.State, error) {
	states := make([]alg.State, b.nTot)
	for u := 0; u < b.nTot; u++ {
		st, err := b.worstStateFor(u, 0, false, u)
		if err != nil {
			return nil, err
		}
		states[u] = st
	}
	return states, nil
}

// worstVal is the staggered counter value for block blk at this level:
// pointer (blk+1) mod m at the start of its window, round counter
// offset by 3·blk.
func (b *Counter) worstVal(blk int) uint64 {
	y := (uint64(blk+1) % uint64(b.m)) * b.pow2m[blk]
	r := (uint64(blk) * 3) % b.tau
	return (y*b.tau + r) % b.blockMod[blk]
}

// worstStateFor builds node uLoc's staggered state at this level. Inner
// levels have their a-register pinned (it doubles as the parent's block
// counter value); the top level staggers registers per node.
func (b *Counter) worstStateFor(uLoc int, forcedA uint64, forceA bool, topIdx int) (alg.State, error) {
	blk := b.BlockOf(uLoc)
	val := b.worstVal(blk)
	var baseSt alg.State
	switch base := b.base.(type) {
	case *Counter:
		var err error
		baseSt, err = base.worstStateFor(b.IndexInBlock(uLoc), val, true, topIdx)
		if err != nil {
			return 0, err
		}
	default:
		st, err := stateForOutput(b.base, val)
		if err != nil {
			return 0, err
		}
		baseSt = st
	}
	regs := phaseking.Registers{A: uint64(topIdx) % b.cOut, D: 0}
	if forceA {
		regs = phaseking.Registers{A: forcedA % b.cOut, D: 0}
	}
	return b.Encode(baseSt, regs)
}
