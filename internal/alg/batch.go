package alg

import "math/rand"

// Patches carries the per-receiver part of one round's message
// delivery in the full-information broadcast model: correct senders
// broadcast — every receiver observes the same state from them — so a
// round is fully described by one shared receive base plus, for each
// receiver, the ≤ f values the faulty senders showed it. This is the
// structural observation (Lenzen & Rybicki, PODC 2015) the vectorized
// round kernel exploits to cut message fan-out from O(n²) to
// O(n·(f+1)).
type Patches struct {
	// Faulty[u] reports whether node u is Byzantine.
	Faulty []bool
	// Senders lists the faulty node indices in ascending order.
	Senders []int
	// Values[v][j] is the state Senders[j] presented to receiver v this
	// round. Rows of faulty receivers are nil — the simulator never
	// delivers to them.
	Values [][]State
	// Class optionally groups receivers that saw the same row: two
	// correct receivers with the same non-negative Class label have
	// equal Values rows. −1 marks a row that is not shared, and a nil
	// slice means nothing is shared. Labels of faulty receivers are
	// ignored.
	Class []int32
}

// Apply overlays receiver v's patch row onto a shared receive base,
// turning it into exactly the vector node v received. Successive calls
// for different receivers simply overwrite the same faulty slots, so no
// restore pass is needed.
func (p *Patches) Apply(recv []State, v int) {
	row := p.Values[v]
	for j, u := range p.Senders {
		recv[u] = row[j]
	}
}

// ClassHead reports whether correct receiver v is the first correct
// receiver of its class — always true for an unshared row.
func (p *Patches) ClassHead(v int) bool {
	if p.Class == nil || p.Class[v] < 0 {
		return true
	}
	for w := v - 1; w >= 0; w-- {
		if p.Class[w] == p.Class[v] && !p.Faulty[w] {
			return false
		}
	}
	return true
}

// NextInClass returns the next correct receiver after v that shares
// v's class, or −1 when there is none. Starting at a class head,
// `for w := v; w >= 0; w = p.NextInClass(w)` visits every member of
// the class in ascending order.
func (p *Patches) NextInClass(v int) int {
	if p.Class == nil || p.Class[v] < 0 {
		return -1
	}
	for w := v + 1; w < len(p.Class); w++ {
		if p.Class[w] == p.Class[v] && !p.Faulty[w] {
			return w
		}
	}
	return -1
}

// BatchStepper is the vectorized transition hook: algorithms that
// implement it step all correct nodes of a round in one call, letting
// them share the per-round majority tallies that are identical across
// receivers except for the ≤ f patched faulty slots. The per-node Step
// remains the universal (and reference) path; StepAll must be
// observationally identical to calling Step(v, recv_v, rngs[v]) for
// every correct v in ascending order, where recv_v is base overlaid
// with p.Apply(·, v) — including the order in which each node's rng is
// consumed.
//
// When p.Class groups receivers, StepAll may do the work that depends
// only on the patch row — decoding and tallying the faulty values,
// reading votes off the patched tallies — once per class, visiting the
// members from ClassHead along NextInClass, and run only the
// receiver-specific remainder per member. A receiver without a class
// is the one-member case, so the per-receiver loop needs no second
// form. Batch steppers that recurse into sub-blocks may pass the
// slice of p.Class covering the block down with the sub-block's rows:
// equal rows give equal sub-rows.
type BatchStepper interface {
	Algorithm
	// StepAll writes next[v] for every v with p.Values[v] != nil and
	// must leave the remaining entries untouched. base holds the shared
	// receive vector: entries of correct senders are their broadcast
	// states, entries of faulty senders are unspecified and must be
	// taken from p instead. rngs[v] is node v's private randomness
	// stream (nil entries for deterministic algorithms).
	StepAll(next, base []State, p *Patches, rngs []*rand.Rand)
}
