package adversary

import "github.com/synchcount/synchcount/internal/alg"

// MessageRow implementations for every built-in strategy. Each one is
// provably equivalent to calling Message per (sender, receiver) pair
// in ascending sender order — the kernel differential suite holds the
// vectorized round kernel (which uses these) bit-identical to the
// reference loop (which calls Message per pair) — while doing the
// per-round or per-receiver analysis once instead of once per message:
// splitVote, spread and flip read the View's per-round correct-state,
// camp and majority caches, Silent/mirror reduce to constant
// fills, and random evaluates each sender's seeded draw in closed form.
var (
	_ RowMessenger = Silent{}
	_ RowMessenger = random{}
	_ RowMessenger = Equivocate{}
	_ RowMessenger = mirror{}
	_ RowMessenger = splitVote{}
	_ RowMessenger = spread{}
	_ RowMessenger = flip{}
)

// MessageRow implements RowMessenger.
func (Silent) MessageRow(_ *View, senders []int, _ int, row []alg.State) {
	for j := range senders {
		row[j] = 0
	}
}

// MessageRow implements RowMessenger: each sender's broadcast value is
// the seeded draw of (round, sender) exactly as Message computes it,
// so all receivers observe the same state from it.
func (random) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	for j, from := range senders {
		row[j] = seededDraw(v.senderSeed(from), v.Space)
	}
}

// MessageRow implements RowMessenger: one fresh draw per (sender,
// receiver) pair from the shared stream, in the same order the
// reference loop performs them.
func (Equivocate) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	for j := range senders {
		row[j] = uniform(v.Rng, v.Space)
	}
}

// MessageRow implements RowMessenger.
func (mirror) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	var s alg.State
	for i, f := range v.Faulty {
		if !f {
			s = v.States[i]
			break
		}
	}
	for j := range senders {
		row[j] = s
	}
}

// MessageRow implements RowMessenger: the two camps (a, b) depend only
// on the round's correct states, so they are read from the View's
// per-round cache and fanned out by receiver parity.
func (sv splitVote) MessageRow(v *View, senders []int, to int, row []alg.State) {
	s := sv.Message(v, 0, to)
	for j := range senders {
		row[j] = s
	}
}

// MessageRow implements RowMessenger.
func (sp spread) MessageRow(v *View, senders []int, to int, row []alg.State) {
	correct := v.correctStates()
	var s alg.State
	if len(correct) > 0 {
		s = correct[to%len(correct)]
	}
	for j := range senders {
		row[j] = s
	}
}

// MessageRow implements RowMessenger: the majority is computed once
// per round, not once per row or per message.
func (fl flip) MessageRow(v *View, senders []int, _ int, row []alg.State) {
	s := (v.correctMajority() + 1) % v.Space
	for j := range senders {
		row[j] = s
	}
}
