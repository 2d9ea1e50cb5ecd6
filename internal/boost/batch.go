package boost

import (
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/phaseking"
)

// Batch stepping for the Theorem 1 construction. One boosted round per
// node consists of (1) the block algorithm's update, (2) the
// three-level majority vote for the common round counter R, and (3) a
// phase king instruction — and in the full-information broadcast model
// every receiver observes identical states from correct senders, so
// the tallies behind (2) and (3) differ across receivers only in the
// ≤ F patched faulty slots. StepAll therefore decodes every correct
// state once, builds each vote tally once, and per receiver only adds,
// queries and removes the patched contributions: O(N·(F+1)) tally work
// per round instead of the scalar path's O(N²), with zero steady-state
// allocations (the working set is pooled on the Counter).
//
// Bit-identicality to per-node Step — including rng consumption order
// of randomised bases — is pinned by the kernel differential suite and
// TestBatchStepMatchesStep.
var _ alg.BatchStepper = (*Counter)(nil)

// batchScratch is the pooled working set of one StepAll invocation.
type batchScratch struct {
	// Per-node decodings of the shared receive base (correct entries
	// only).
	fld0   []uint64 // codec field 0: the block-algorithm state
	regA   []uint64 // phase king output register (Infinity-decoded)
	ldrR   []uint64 // block-counter round component r
	ldrPtr []uint64 // block-counter leader pointer

	newBase []alg.State // block-algorithm results per node

	regTally *alg.DenseTally   // register votes, domain C (+∞ slot)
	ptrTally []*alg.DenseTally // per-block leader-pointer votes, domain m
	rTally   []*alg.DenseTally // per-block round-counter votes, domain τ

	blockVotes []uint64 // per-receiver block vote scratch
	voteCount  []int    // counting sort for the cross-block majority
	sharedVote []uint64 // round-constant block votes of fault-free blocks
	blockFault []bool   // does block i contain a faulty sender?

	colOf  []int32  // colOf[u] = column of faulty sender u in Patches + 1
	patchA []uint64 // per-column decoded register value of this receiver
	patchR []uint64 // per-column decoded round component
	patchP []uint64 // per-column decoded leader pointer

	// Per-block sub-stepping working set.
	subBase    []alg.State
	subNext    []alg.State
	subSenders []int
	subCols    []int
	subFlat    []alg.State
	subRows    [][]alg.State
	subP       alg.Patches

	// pack avoids the variadic-slice allocation of MustPack(a, b, c):
	// passing a scratch slice through ... reuses its backing array.
	pack [3]uint64
}

func (b *Counter) getScratch() *batchScratch {
	if sc, ok := b.pool.Get().(*batchScratch); ok {
		return sc
	}
	sc := &batchScratch{
		fld0:       make([]uint64, b.nTot),
		regA:       make([]uint64, b.nTot),
		ldrR:       make([]uint64, b.nTot),
		ldrPtr:     make([]uint64, b.nTot),
		newBase:    make([]alg.State, b.nTot),
		regTally:   alg.NewDenseTally(b.cOut),
		ptrTally:   make([]*alg.DenseTally, b.k),
		rTally:     make([]*alg.DenseTally, b.k),
		blockVotes: make([]uint64, b.k),
		voteCount:  make([]int, b.m),
		sharedVote: make([]uint64, b.k),
		blockFault: make([]bool, b.k),
		colOf:      make([]int32, b.nTot),
		patchA:     make([]uint64, b.nTot),
		patchR:     make([]uint64, b.nTot),
		patchP:     make([]uint64, b.nTot),
		subBase:    make([]alg.State, b.n),
		subNext:    make([]alg.State, b.n),
		subSenders: make([]int, 0, b.n),
		subCols:    make([]int, 0, b.n),
		subFlat:    make([]alg.State, b.n*b.n+1),
		subRows:    make([][]alg.State, b.n),
	}
	for i := 0; i < b.k; i++ {
		sc.ptrTally[i] = alg.NewDenseTally(uint64(b.m))
		sc.rTally[i] = alg.NewDenseTally(b.tau)
	}
	return sc
}

// StepAll implements alg.BatchStepper.
func (b *Counter) StepAll(next, base []alg.State, p *alg.Patches, rngs []*rand.Rand) {
	sc := b.getScratch()
	defer func() {
		// colOf must return to all-zero for the next (possibly
		// differently-faulted) run that draws this scratch.
		for _, u := range p.Senders {
			sc.colOf[u] = 0
		}
		b.pool.Put(sc)
	}()

	for col, u := range p.Senders {
		sc.colOf[u] = int32(col) + 1
	}
	for i := range sc.blockFault {
		sc.blockFault[i] = false
	}
	for _, u := range p.Senders {
		sc.blockFault[u/b.n] = true
	}

	// (1) Decode every correct state once; build the shared tallies.
	sc.regTally.Reset()
	for i := 0; i < b.k; i++ {
		sc.ptrTally[i].Reset()
		sc.rTally[i].Reset()
	}
	for u := 0; u < b.nTot; u++ {
		if p.Faulty[u] {
			continue
		}
		st := base[u]
		sc.fld0[u] = b.cdc.Field(st, 0)
		a := b.Registers(st).A
		sc.regA[u] = a
		sc.regTally.Add(a)
		r, _, ptr := b.Leader(u, st)
		sc.ldrR[u], sc.ldrPtr[u] = r, ptr
		blk := u / b.n
		sc.ptrTally[blk].Add(ptr)
		sc.rTally[blk].Add(r)
	}

	// (2) Blocks without faulty members vote identically for every
	// receiver: resolve them once per round.
	for i := 0; i < b.k; i++ {
		if !sc.blockFault[i] {
			v, _ := sc.ptrTally[i].Majority()
			sc.sharedVote[i] = v
		}
	}

	// (3) Advance every block's copy of the base algorithm.
	b.batchSubSteps(sc, p, rngs)

	// (4) Vote and run the phase king instruction per receiver.
	if len(p.Senders) == 0 {
		// Fault-free round: one shared vote and tally serves everyone.
		bigR := b.batchVoteR(sc)
		king := int(phaseking.KingOf(bigR))
		kingA := sc.regA[king]
		for v := 0; v < b.nTot; v++ {
			regs := phaseking.Step(b.pkCfg, b.Registers(base[v]), bigR, sc.regTally, kingA)
			aField, dField := regs.Encode(b.cOut)
			sc.pack[0], sc.pack[1], sc.pack[2] = sc.newBase[v], aField, dField
			next[v] = b.cdc.MustPack(sc.pack[:]...)
		}
		return
	}

	// Members of a receiver class saw the same patch row: tally its
	// values and vote once per class, and run only the phase king
	// instruction per member.
	for v := 0; v < b.nTot; v++ {
		if p.Faulty[v] || !p.ClassHead(v) {
			continue
		}
		row := p.Values[v]
		for col, u := range p.Senders {
			s := row[col]
			a := b.Registers(s).A
			r, _, ptr := b.Leader(u, s)
			sc.patchA[col], sc.patchR[col], sc.patchP[col] = a, r, ptr
			sc.regTally.Add(a)
			blk := u / b.n
			sc.ptrTally[blk].Add(ptr)
			sc.rTally[blk].Add(r)
		}
		bigR := b.batchVoteR(sc)
		king := int(phaseking.KingOf(bigR))
		var kingA uint64
		if c := sc.colOf[king]; c != 0 {
			kingA = sc.patchA[c-1]
		} else {
			kingA = sc.regA[king]
		}
		for w := v; w >= 0; w = p.NextInClass(w) {
			regs := phaseking.Step(b.pkCfg, b.Registers(base[w]), bigR, sc.regTally, kingA)
			aField, dField := regs.Encode(b.cOut)
			next[w] = b.cdc.MustPack(sc.newBase[w], aField, dField)
		}
		for col, u := range p.Senders {
			sc.regTally.Remove(sc.patchA[col])
			blk := u / b.n
			sc.ptrTally[blk].Remove(sc.patchP[col])
			sc.rTally[blk].Remove(sc.patchR[col])
		}
	}
}

// batchVoteR is voteR over the currently patched tallies: per-block
// leader-pointer majorities (fault-free blocks reuse the shared round
// result), the cross-block majority B by counting sort, and the round
// counter majority of leader block B.
func (b *Counter) batchVoteR(sc *batchScratch) uint64 {
	for i := 0; i < b.k; i++ {
		if sc.blockFault[i] {
			v, _ := sc.ptrTally[i].Majority()
			sc.blockVotes[i] = v
		} else {
			sc.blockVotes[i] = sc.sharedVote[i]
		}
	}
	for i := range sc.voteCount {
		sc.voteCount[i] = 0
	}
	bigB := uint64(0)
	found := false
	for _, v := range sc.blockVotes {
		// Block votes are leader pointers in [m] (or the default 0), so
		// the counting array covers them; an absolute majority is
		// unique, so the first value to cross half the blocks is it.
		sc.voteCount[v]++
		if !found && 2*sc.voteCount[v] > b.k {
			bigB, found = v, true
		}
	}
	if bigB >= uint64(b.k) {
		bigB = 0 // parity with voteR's clamp of garbage votes
	}
	val, _ := sc.rTally[bigB].Majority()
	return val % b.tau
}

// batchSubSteps advances block i's copy of the base algorithm for
// every block, sharing one extracted sub-base per block and recursing
// through StepAll when the base is itself a batch stepper (stacked
// Theorem 1 levels devirtualize all the way down).
func (b *Counter) batchSubSteps(sc *batchScratch, p *alg.Patches, rngs []*rand.Rand) {
	bs, isBatch := b.base.(alg.BatchStepper)
	for i := 0; i < b.k; i++ {
		lo := i * b.n
		for j := 0; j < b.n; j++ {
			sc.subBase[j] = sc.fld0[lo+j]
		}
		sc.subSenders = sc.subSenders[:0]
		sc.subCols = sc.subCols[:0]
		for col, u := range p.Senders {
			if u >= lo && u < lo+b.n {
				sc.subSenders = append(sc.subSenders, u-lo)
				sc.subCols = append(sc.subCols, col)
			}
		}
		sc.subP = alg.Patches{
			Faulty:  p.Faulty[lo : lo+b.n],
			Senders: sc.subSenders,
			Values:  sc.subRows,
		}
		if p.Class != nil {
			sc.subP.Class = p.Class[lo : lo+b.n]
		}
		// Equal rows give equal sub-rows: each class's sub-row is
		// built once, and its members share it.
		snf := len(sc.subSenders)
		flat := sc.subFlat[:b.n*snf]
		for j := 0; j < b.n; j++ {
			if p.Faulty[lo+j] {
				sc.subRows[j] = nil
				continue
			}
			if !sc.subP.ClassHead(j) {
				continue
			}
			row := flat[j*snf : (j+1)*snf : (j+1)*snf]
			prow := p.Values[lo+j]
			for jj, col := range sc.subCols {
				row[jj] = b.cdc.Field(prow[col], 0)
			}
			for w := j; w >= 0; w = sc.subP.NextInClass(w) {
				sc.subRows[w] = row
			}
		}
		if isBatch {
			bs.StepAll(sc.subNext, sc.subBase, &sc.subP, rngs[lo:lo+b.n])
		} else {
			for j := 0; j < b.n; j++ {
				if p.Faulty[lo+j] {
					continue
				}
				sc.subP.Apply(sc.subBase, j)
				sc.subNext[j] = b.base.Step(j, sc.subBase, rngs[lo+j])
			}
		}
		for j := 0; j < b.n; j++ {
			if !p.Faulty[lo+j] {
				sc.newBase[lo+j] = sc.subNext[j]
			}
		}
	}
}
