package sim

import (
	"fmt"
	"slices"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
)

// kernelRound delivers one round of messages and steps every correct
// node through the vectorized path:
//
//  1. Fan-out: correct nodes broadcast — their states are copied into
//     one shared receive base — while the adversary's per-receiver
//     choices for the ≤ f faulty slots are collected into the patch
//     matrix. Total copies: O(n·(f+1)) instead of the reference loop's
//     O(n²).
//  2. Stepping: algorithms taking the bit-sliced path
//     (alg.BitSliceStepper, provisioned planes) advance 64 correct
//     nodes per machine word from the transposed state and patch
//     planes; algorithms implementing alg.BatchStepper advance all
//     correct nodes in one devirtualized call, sharing the per-round
//     vote tallies across receivers and the patch work across
//     receivers that saw the same row (see classifyRows); everything
//     else falls back to the per-node Step on the patched base.
//
// The adversary is consulted in exactly the reference order — receivers
// ascending, faulty senders ascending within each receiver — so
// strategies drawing from the shared adversary rng produce identical
// streams, and the whole round is bit-identical to the reference loop.
func kernelRound(a alg.Algorithm, batch alg.BatchStepper, sliced alg.BitSliceStepper, adv adversary.Adversary, view *adversary.View, sc *runScratch) error {
	n, space := len(sc.states), view.Space
	base := sc.recv
	if sliced == nil {
		// The bit-sliced path reads states from the transposed planes
		// only, so the shared horizontal base is not materialised.
		copy(base, sc.states)
	}
	p := &sc.patches
	if rower, ok := adv.(adversary.RowMessenger); ok && len(p.Senders) > 0 {
		for v := 0; v < n; v++ {
			if sc.faulty[v] {
				continue
			}
			row := p.Values[v]
			rower.MessageRow(view, p.Senders, v, row)
			if sliced != nil {
				// ScatterRows reduces into [0, space) while transposing;
				// a separate O(n·f) pass here would be pure overhead, and
				// nothing else reads p.Values on the bit-sliced path.
				continue
			}
			for j := range row {
				// Branch instead of unconditional division: adversaries
				// almost always forge in-range states, and a hardware
				// divide per faulty slot per receiver is the single
				// hottest instruction of a cheap-algorithm round.
				if row[j] >= space {
					row[j] %= space
				}
			}
		}
	} else {
		for v := 0; v < n; v++ {
			if sc.faulty[v] {
				continue
			}
			row := p.Values[v]
			for j, u := range p.Senders {
				row[j] = adv.Message(view, u, v) % space
			}
		}
	}

	next := sc.next
	if sliced != nil {
		if len(p.Senders) > 0 {
			sc.planes.ScatterRows(p.Values, space)
		}
		sc.planes.PackStates(sc.states)
		sliced.StepAllSliced(next, &sc.planes, p, sc.nodeRngs)
		for v := 0; v < n; v++ {
			if !sc.faulty[v] && next[v] >= space {
				return fmt.Errorf("sim: node %d stepped outside state space (%d >= %d)", v, next[v], space)
			}
		}
	} else if batch != nil {
		if len(p.Senders) > 0 {
			sc.classifyRows()
		}
		batch.StepAll(next, base, p, sc.nodeRngs)
		for v := 0; v < n; v++ {
			if !sc.faulty[v] && next[v] >= space {
				return fmt.Errorf("sim: node %d stepped outside state space (%d >= %d)", v, next[v], space)
			}
		}
	} else {
		for v := 0; v < n; v++ {
			if sc.faulty[v] {
				continue
			}
			p.Apply(base, v)
			next[v] = a.Step(v, base, sc.nodeRngs[v])
			if next[v] >= space {
				return fmt.Errorf("sim: node %d stepped outside state space (%d >= %d)", v, next[v], space)
			}
		}
	}
	for v := 0; v < n; v++ {
		if sc.faulty[v] {
			next[v] = sc.states[v]
		}
	}
	return nil
}

// maxRowClasses caps the representative rows classifyRows compares
// against. Every built-in adversary except equivocate and spread shows
// at most two distinct rows a round.
const maxRowClasses = 4

// classifyRows labels the correct receivers that saw identical patch
// rows with a shared alg.Patches.Class, so batch steppers do the
// row-dependent work once per class. Each row is compared against at
// most maxRowClasses representatives, each compare stopping at the
// first differing slot. A row matching none while the cap is full is
// left unshared (−1), as are classes of one; once the cap fills with
// rows that all differ, the round is taken to be unshared and the
// remaining rows are not compared at all.
func (s *runScratch) classifyRows() {
	p := &s.patches
	var reps [maxRowClasses]int
	var size [maxRowClasses]int
	nreps, shared := 0, false
	v := 0
	for ; v < len(p.Values); v++ {
		row := p.Values[v]
		if row == nil {
			s.rowClass[v] = -1
			continue
		}
		label := int32(-1)
		for k := 0; k < nreps; k++ {
			if slices.Equal(p.Values[reps[k]], row) {
				label = int32(k)
				size[k]++
				shared = true
				break
			}
		}
		if label < 0 && nreps < maxRowClasses {
			label = int32(nreps)
			reps[nreps], size[nreps] = v, 1
			nreps++
		}
		s.rowClass[v] = label
		if nreps == maxRowClasses && !shared {
			v++
			break
		}
	}
	for ; v < len(p.Values); v++ {
		s.rowClass[v] = -1
	}
	for k := 0; k < nreps; k++ {
		if size[k] == 1 {
			s.rowClass[reps[k]] = -1
		}
	}
	p.Class = s.rowClass
}

// preparePatches provisions the broadcast kernel's working set for the
// current fault mask: the shared receive base, the row-class labels,
// the ascending faulty-sender index list and one len(Senders) patch row
// per correct receiver, all carved out of a single pooled backing
// array.
func (s *runScratch) preparePatches(n int) {
	if cap(s.recv) < n {
		s.recv = make([]alg.State, n)
		s.rowClass = make([]int32, n)
	}
	s.recv = s.recv[:n]
	s.rowClass = s.rowClass[:n]
	s.faultyIdx = s.faultyIdx[:0]
	for u, f := range s.faulty {
		if f {
			s.faultyIdx = append(s.faultyIdx, u)
		}
	}
	nf := len(s.faultyIdx)
	if cap(s.patchFlat) < n*nf || s.patchFlat == nil {
		// Always at least capacity 1, so zero-length rows still carry a
		// non-nil pointer: nil rows are the "faulty receiver" marker of
		// the alg.Patches contract.
		size := n * nf
		if size == 0 {
			size = 1
		}
		s.patchFlat = make([]alg.State, size)
	}
	if cap(s.patchRows) < n {
		s.patchRows = make([][]alg.State, n)
	}
	s.patchRows = s.patchRows[:n]
	flat := s.patchFlat[:n*nf]
	for v := 0; v < n; v++ {
		if s.faulty[v] {
			s.patchRows[v] = nil
			continue
		}
		s.patchRows[v] = flat[v*nf : (v+1)*nf : (v+1)*nf]
	}
	s.patches = alg.Patches{
		Faulty:  s.faulty,
		Senders: s.faultyIdx,
		Values:  s.patchRows,
	}
}
