package ecount

import (
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Batch stepping for the 1508.02535 counter. A round of the derived
// counter reads both block clocks by quorum vote and (during a sweep)
// tallies the consensus registers of all n nodes — and in the
// broadcast model those tallies are identical at every receiver except
// for the ≤ f patched faulty slots. StepAll builds each tally once
// over the correct senders and resolves each block's clock once per
// round wherever the patched votes cannot change it: always for a
// fault-free block, and for a faulty one whose correct members alone
// carry the quorum or cannot reach it even with every faulty vote.
// Per receiver class it adds, queries and removes only the patched
// clock votes of a block left undecided, and the patched register
// reports only when a member runs a sweep instruction. The block
// counters recurse through StepAll down to the MaxStep leaves, so a
// whole round runs without per-node interface dispatch or allocations
// (the working set is pooled on the Counter).
//
// StepAll and per-node Step share the per-receiver tail stepReceiver;
// both are held bit-identical to the map-backed oracle stepReference
// (export_test.go) by TestBatchStepMatchesStep,
// TestStepAllClockReadThresholds, TestStepMatchesReference,
// FuzzECountTransition and FuzzECountStepAll, and to each other by the
// kernel differential suite.
var _ alg.BatchStepper = (*Counter)(nil)

type batchScratch struct {
	fldBlock []uint64 // codec field 0 per correct node (raw, pre-mod)
	regDec   []uint64 // decoded consensus-register report per correct node

	clockTally [2]*alg.DenseTally // per-block clock votes, domain 4τ
	regTally   *alg.DenseTally    // consensus-register votes, domain c (+⊥)

	blockFaults [2]int    // faulty members per block
	decided     [2]bool   // the block's read is the same at every receiver
	sharedR     [2]uint64 // that read, for decided blocks
	sharedOK    [2]bool

	colOf      []int32     // colOf[u] = column of faulty sender u in Patches + 1
	patchClock []uint64    // one block's patched clock votes in this receiver's view
	patchReg   []uint64    // per-column decoded register report
	row        []alg.State // the current receiver class's patch row
	rowTallied bool        // row's register reports are in regTally

	newSub     []alg.State // block-counter results per node
	subBase    []alg.State
	subNext    []alg.State
	subSenders []int
	subCols    []int
	subFlat    []alg.State
	subRows    [][]alg.State
	subP       alg.Patches

	// pack avoids the variadic-slice allocation of MustPack(a, b, ...):
	// passing a scratch slice through ... reuses its backing array.
	pack [5]uint64
}

func (e *Counter) getScratch() *batchScratch {
	if sc, ok := e.pool.Get().(*batchScratch); ok {
		return sc
	}
	maxBlock := e.n0
	if e.n-e.n0 > maxBlock {
		maxBlock = e.n - e.n0
	}
	sc := &batchScratch{
		fldBlock:   make([]uint64, e.n),
		regDec:     make([]uint64, e.n),
		regTally:   alg.NewDenseTally(e.c),
		colOf:      make([]int32, e.n),
		patchClock: make([]uint64, e.n),
		patchReg:   make([]uint64, e.n),
		newSub:     make([]alg.State, e.n),
		subBase:    make([]alg.State, maxBlock),
		subNext:    make([]alg.State, maxBlock),
		subSenders: make([]int, 0, maxBlock),
		subCols:    make([]int, 0, maxBlock),
		subFlat:    make([]alg.State, maxBlock*maxBlock+1),
		subRows:    make([][]alg.State, maxBlock),
	}
	sc.clockTally[0] = alg.NewDenseTally(e.period)
	sc.clockTally[1] = alg.NewDenseTally(e.period)
	return sc
}

// StepAll implements alg.BatchStepper.
func (e *Counter) StepAll(next, base []alg.State, p *alg.Patches, rngs []*rand.Rand) {
	sc := e.getScratch()
	defer func() {
		for _, u := range p.Senders {
			sc.colOf[u] = 0
		}
		sc.row = nil
		e.pool.Put(sc)
	}()

	e.shareRound(sc, base, p)

	// (3) Advance both block counters.
	e.batchSubSteps(sc, p, rngs)

	// (4) Clock reads, sweep pointers and the consensus/increment
	// branch. Members of a receiver class saw the same patch row, so
	// an undecided block's clock is read once per class, and the row's
	// register reports are tallied at most once, when the first member
	// runs a sweep instruction (stepReceiver); only the per-receiver
	// tail runs for every member.
	for v := 0; v < e.n; v++ {
		if p.Faulty[v] || !p.ClassHead(v) {
			continue
		}
		row := p.Values[v]
		r, ok := sc.sharedR, sc.sharedOK
		for bi := 0; bi < 2; bi++ {
			if !sc.decided[bi] {
				r[bi], ok[bi] = e.readPatchedClock(sc, bi, p.Senders, row)
			}
		}
		sc.row, sc.rowTallied = row, false
		for w := v; w >= 0; w = p.NextInClass(w) {
			next[w] = e.stepReceiver(sc, base[w], sc.newSub[w], r, ok, nil)
		}
		if sc.rowTallied {
			for col := range row {
				sc.regTally.Remove(sc.patchReg[col])
			}
		}
	}
}

// shareRound runs stages (1) and (2) of StepAll, the part of a round
// every receiver shares: it marks the faulty senders' columns, builds
// the tallies over the correct senders and resolves every block clock
// the patched votes cannot change.
func (e *Counter) shareRound(sc *batchScratch, base []alg.State, p *alg.Patches) {
	sc.blockFaults = [2]int{}
	for col, u := range p.Senders {
		sc.colOf[u] = int32(col) + 1
		sc.blockFaults[e.BlockOf(u)]++
	}

	// (1) Decode every correct state once; build the shared tallies.
	sc.regTally.Reset()
	sc.clockTally[0].Reset()
	sc.clockTally[1].Reset()
	for u := 0; u < e.n; u++ {
		if p.Faulty[u] {
			continue
		}
		st := base[u]
		fld := e.cdc.Field(st, fieldBlock)
		sc.fldBlock[u] = fld
		bi := e.BlockOf(u)
		lo, _ := e.blockRange(bi)
		sub := e.sub[bi]
		sc.clockTally[bi].Add(uint64(sub.Output(u-lo, fld%sub.StateSpace())))
		dec := e.cons.DecodeReport(e.cdc.Field(st, fieldA))
		sc.regDec[u] = dec
		sc.regTally.Add(dec)
	}

	// (2) Resolve each block's clock once per round where the patched
	// votes cannot change it. A receiver tallies all n_b of the block's
	// votes: the correct members', whose plurality value holds c, plus
	// the k patched ones, so no value holds more than c + k. If c
	// clears the quorum n_b − f_b (> n_b/2), the plurality value wins
	// at every receiver; if c + k misses it, every receiver's read
	// fails. Either way the correct members' tally alone gives the
	// read. A fault-free block (k = 0) always resolves here.
	for bi := 0; bi < 2; bi++ {
		_, c := sc.clockTally[bi].Plurality()
		q := e.quora[bi]
		sc.decided[bi] = c >= q || c+sc.blockFaults[bi] < q
		if sc.decided[bi] {
			sc.sharedR[bi], sc.sharedOK[bi] = e.readClockTally(bi, sc.clockTally[bi])
		}
	}
}

// readPatchedClock reads block bi's clock in one receiver's view: the
// correct members' shared tally plus the patch row's votes from the
// block's faulty members, which are removed again afterwards. Senders
// ascend, so block 0's faulty members fill the first blockFaults[0]
// columns and block 1's the rest.
func (e *Counter) readPatchedClock(sc *batchScratch, bi int, senders []int, row []alg.State) (uint64, bool) {
	c0 := 0
	if bi == 1 {
		c0 = sc.blockFaults[0]
	}
	lo, _ := e.blockRange(bi)
	sub := e.sub[bi]
	space := sub.StateSpace()
	tally := sc.clockTally[bi]
	keys := sc.patchClock[:sc.blockFaults[bi]]
	for j := range keys {
		col := c0 + j
		keys[j] = uint64(sub.Output(senders[col]-lo, e.cdc.Field(row[col], fieldBlock)%space))
		tally.Add(keys[j])
	}
	r, ok := e.readClockTally(bi, tally)
	for _, key := range keys {
		tally.Remove(key)
	}
	return r, ok
}

// readClockTally reads block bi's clock from a prebuilt (and possibly
// patched) tally of its nodes' reported counter outputs: the output
// reported by an absolute majority of the block's nodes that also
// clears the block's quorum n_i - f_i, reduced modulo the schedule
// period. A stabilised within-budget block yields the same read at
// every correct node; a corrupt block can fail the quorum, but its
// faulty members alone can never assemble one.
func (e *Counter) readClockTally(bi int, tally *alg.DenseTally) (uint64, bool) {
	val, ok := tally.Majority()
	if !ok || tally.Count(val) < e.quora[bi] {
		return 0, false
	}
	return val % e.period, true
}

// report returns sender u's decoded consensus-register report in the
// current receiver's view: its patched value if u is a faulty sender,
// otherwise the round's shared decode.
func (sc *batchScratch) report(u int) uint64 {
	if c := sc.colOf[u]; c != 0 {
		return sc.patchReg[c-1]
	}
	return sc.regDec[u]
}

// batchSubSteps advances both blocks' counters, sharing one extracted
// sub-base per block and recursing through StepAll when the block
// counter supports it (nested ecount levels and the MaxStep leaves
// both do).
func (e *Counter) batchSubSteps(sc *batchScratch, p *alg.Patches, rngs []*rand.Rand) {
	for bi := 0; bi < 2; bi++ {
		lo, size := e.blockRange(bi)
		sub := e.sub[bi]
		space := sub.StateSpace()
		for j := 0; j < size; j++ {
			sc.subBase[j] = sc.fldBlock[lo+j] % space
		}
		sc.subSenders = sc.subSenders[:0]
		sc.subCols = sc.subCols[:0]
		for col, u := range p.Senders {
			if u >= lo && u < lo+size {
				sc.subSenders = append(sc.subSenders, u-lo)
				sc.subCols = append(sc.subCols, col)
			}
		}
		sc.subP = alg.Patches{
			Faulty:  p.Faulty[lo : lo+size],
			Senders: sc.subSenders,
			Values:  sc.subRows[:size],
		}
		if p.Class != nil {
			sc.subP.Class = p.Class[lo : lo+size]
		}
		// Equal rows give equal sub-rows: each class's sub-row is
		// built once, and its members share it.
		snf := len(sc.subSenders)
		flat := sc.subFlat[:size*snf]
		for j := 0; j < size; j++ {
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
				row[jj] = e.cdc.Field(prow[col], fieldBlock) % space
			}
			for w := j; w >= 0; w = sc.subP.NextInClass(w) {
				sc.subRows[w] = row
			}
		}
		if bs, ok := sub.(alg.BatchStepper); ok {
			bs.StepAll(sc.subNext[:size], sc.subBase[:size], &sc.subP, rngs[lo:lo+size])
		} else {
			for j := 0; j < size; j++ {
				if p.Faulty[lo+j] {
					continue
				}
				sc.subP.Apply(sc.subBase[:size], j)
				sc.subNext[j] = sub.Step(j, sc.subBase[:size], rngs[lo+j])
			}
		}
		for j := 0; j < size; j++ {
			if !p.Faulty[lo+j] {
				sc.newSub[lo+j] = sc.subNext[j]
			}
		}
	}
}
