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
// over the correct senders, resolves the clock of a fault-free block
// once per round, and per receiver only adds/queries/removes the
// patched contributions; the block counters recurse through StepAll
// down to the MaxStep leaves, so a whole round runs without per-node
// interface dispatch or allocations (the working set is pooled on the
// Counter).
//
// StepAll and per-node Step share the per-receiver tail stepReceiver;
// both are held bit-identical to the map-backed oracle stepReference
// (export_test.go) by TestBatchStepMatchesStep, TestStepMatchesReference
// and FuzzECountTransition, and to each other by the kernel
// differential suite.
var _ alg.BatchStepper = (*Counter)(nil)

type batchScratch struct {
	fldBlock []uint64 // codec field 0 per correct node (raw, pre-mod)
	clockKey []uint64 // block-clock tally key per correct node
	regDec   []uint64 // decoded consensus-register report per correct node

	clockTally [2]*alg.DenseTally // per-block clock votes, domain 4τ
	regTally   *alg.DenseTally    // consensus-register votes, domain c (+⊥)

	sharedR    [2]uint64 // round-constant clock reads of fault-free blocks
	sharedOK   [2]bool
	blockFault [2]bool

	colOf      []int32  // colOf[u] = column of faulty sender u in Patches + 1
	patchClock []uint64 // per-column clock key of this receiver's view
	patchReg   []uint64 // per-column decoded register report

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
		clockKey:   make([]uint64, e.n),
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
		e.pool.Put(sc)
	}()

	for col, u := range p.Senders {
		sc.colOf[u] = int32(col) + 1
	}
	sc.blockFault[0], sc.blockFault[1] = false, false
	for _, u := range p.Senders {
		sc.blockFault[e.BlockOf(u)] = true
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
		key := uint64(sub.Output(u-lo, fld%sub.StateSpace()))
		sc.clockKey[u] = key
		sc.clockTally[bi].Add(key)
		dec := e.cons.DecodeReport(e.cdc.Field(st, fieldA))
		sc.regDec[u] = dec
		sc.regTally.Add(dec)
	}

	// (2) A block without faulty members reads identically at every
	// receiver: resolve its clock once per round.
	for bi := 0; bi < 2; bi++ {
		sc.sharedOK[bi] = false
		if !sc.blockFault[bi] {
			sc.sharedR[bi], sc.sharedOK[bi] = e.readClockTally(bi, sc.clockTally[bi])
		}
	}

	// (3) Advance both block counters.
	e.batchSubSteps(sc, p, rngs)

	// (4) Clock reads, sweep pointers and the consensus/increment
	// branch. Members of a receiver class saw the same patch row, so
	// its values are tallied and both clocks read once per class; only
	// the per-receiver tail runs for every member.
	for v := 0; v < e.n; v++ {
		if p.Faulty[v] || !p.ClassHead(v) {
			continue
		}
		row := p.Values[v]
		for col, u := range p.Senders {
			s := row[col]
			bi := e.BlockOf(u)
			lo, _ := e.blockRange(bi)
			sub := e.sub[bi]
			key := uint64(sub.Output(u-lo, e.cdc.Field(s, fieldBlock)%sub.StateSpace()))
			sc.patchClock[col] = key
			sc.clockTally[bi].Add(key)
			dec := e.cons.DecodeReport(e.cdc.Field(s, fieldA))
			sc.patchReg[col] = dec
			sc.regTally.Add(dec)
		}

		var r [2]uint64
		var ok [2]bool
		for bi := 0; bi < 2; bi++ {
			if sc.blockFault[bi] {
				r[bi], ok[bi] = e.readClockTally(bi, sc.clockTally[bi])
			} else {
				r[bi], ok[bi] = sc.sharedR[bi], sc.sharedOK[bi]
			}
		}
		for w := v; w >= 0; w = p.NextInClass(w) {
			next[w] = e.stepReceiver(sc, base[w], sc.newSub[w], r, ok, nil)
		}

		for col, u := range p.Senders {
			sc.clockTally[e.BlockOf(u)].Remove(sc.patchClock[col])
			sc.regTally.Remove(sc.patchReg[col])
		}
	}
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
