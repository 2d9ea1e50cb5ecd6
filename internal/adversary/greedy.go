package adversary

import (
	"errors"
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Greedy is a one-step-lookahead optimising adversary for deterministic
// algorithms: every round it samples candidate joint message
// assignments (one per faulty sender and receiver pair), simulates the
// next step of every correct node under each candidate, and commits to
// the assignment that maximises a disagreement potential — the number
// of distinct outputs (weighted) plus the number of distinct states
// among correct nodes.
//
// It upper-bounds what a myopic omniscient attacker can do and is used
// in the bound-tightness ablations (E5). It is NOT safe for concurrent
// use: it caches one round's assignment at a time, matching the
// single-threaded simulators in this repository. For the same reason —
// hidden mutable state plus draws from View.Rng — it deliberately does
// NOT implement snapshottable: greedy runs never fast-forward.
//
// The lookahead itself runs on the vectorized machinery: candidate
// assignments live in flat to-major matrices that double as the patch
// rows of alg.BatchStepper (so scoring a candidate batch-steps all
// correct nodes in one call when the algorithm supports it), and all
// working storage is retained across rounds — the per-round map and
// slice churn of the original implementation is gone.
type Greedy struct {
	alg     alg.Algorithm
	batch   alg.BatchStepper // alg's batch hook, nil when unsupported
	inner   Adversary
	samples int

	cachedRound uint64
	haveCache   bool

	// Round-scoped scratch, sized on first use.
	faulty  []int         // ascending faulty sender indices
	colOf   []int32       // node → column in the matrices, -1 if correct
	cand    []alg.State   // candidate assignment, [to*nf+col]
	best    []alg.State   // committed assignment, same layout
	rows    [][]alg.State // per-receiver views into cand (patch rows)
	recv    []alg.State   // per-node receive scratch (scalar fallback)
	next    []alg.State   // stepped states
	rngs    []*rand.Rand  // nil entries: lookahead is deterministic
	outSeen []int         // distinct-output scratch
	stSeen  []alg.State   // distinct-state scratch
}

var _ Adversary = (*Greedy)(nil)
var _ RowMessenger = (*Greedy)(nil)

// NewGreedy wraps an inner strategy (the candidate generator, e.g.
// Equivocate or a construction-aware attack) with greedy lookahead over
// `samples` candidate assignments per round. The algorithm must be
// deterministic: lookahead simulates Step with a nil rng.
func NewGreedy(a alg.Algorithm, inner Adversary, samples int) (*Greedy, error) {
	if a == nil {
		return nil, errors.New("adversary: nil algorithm")
	}
	if !alg.IsDeterministic(a) {
		return nil, errors.New("adversary: greedy lookahead requires a deterministic algorithm")
	}
	if inner == nil {
		inner = Equivocate{}
	}
	if samples < 1 {
		samples = 4
	}
	g := &Greedy{alg: a, inner: inner, samples: samples}
	g.batch, _ = a.(alg.BatchStepper)
	return g, nil
}

// Name implements Adversary.
func (g *Greedy) Name() string { return "greedy+" + g.inner.Name() }

// Message implements Adversary.
func (g *Greedy) Message(v *View, from, to int) alg.State {
	if !g.haveCache || g.cachedRound != v.Round {
		g.recompute(v)
	}
	col := g.colOf[from]
	if col < 0 {
		return 0
	}
	return g.best[to*len(g.faulty)+int(col)]
}

// MessageRow implements RowMessenger: the committed assignment is
// already a to-major matrix, so a receiver's row is a single copy.
func (g *Greedy) MessageRow(v *View, senders []int, to int, row []alg.State) {
	if !g.haveCache || g.cachedRound != v.Round {
		g.recompute(v)
	}
	nf := len(g.faulty)
	for j, from := range senders {
		if col := g.colOf[from]; col >= 0 {
			row[j] = g.best[to*nf+int(col)]
		} else {
			row[j] = 0
		}
	}
}

// resize provisions the scratch for the current view.
func (g *Greedy) resize(v *View) {
	n := len(v.States)
	if cap(g.colOf) < n {
		g.colOf = make([]int32, n)
		g.recv = make([]alg.State, n)
		g.next = make([]alg.State, n)
		g.rngs = make([]*rand.Rand, n)
		g.rows = make([][]alg.State, n)
		g.outSeen = make([]int, 0, n)
		g.stSeen = make([]alg.State, 0, n)
	}
	g.colOf = g.colOf[:n]
	g.recv = g.recv[:n]
	g.next = g.next[:n]
	g.rngs = g.rngs[:n]
	g.rows = g.rows[:n]
	g.faulty = g.faulty[:0]
	for i, f := range v.Faulty {
		if f {
			g.colOf[i] = int32(len(g.faulty))
			g.faulty = append(g.faulty, i)
		} else {
			g.colOf[i] = -1
		}
	}
	if size := n * len(g.faulty); cap(g.cand) < size || g.cand == nil {
		g.cand = make([]alg.State, size+1)
		g.best = make([]alg.State, size+1)
	}
}

func (g *Greedy) recompute(v *View) {
	g.resize(v)
	n := len(v.States)
	nf := len(g.faulty)

	// Candidate 0: the inner strategy verbatim. Later candidates mutate
	// a random subset of pairs to uniform random states.
	bestScore := -1
	for c := 0; c < g.samples; c++ {
		for _, from := range g.faulty {
			col := int(g.colOf[from])
			for to := 0; to < n; to++ {
				msg := g.inner.Message(v, from, to)
				if c > 0 && v.Rng.Intn(2) == 0 {
					msg = uniform(v.Rng, v.Space)
				}
				g.cand[to*nf+col] = msg % v.Space
			}
		}
		score := g.score(v)
		if score > bestScore {
			bestScore = score
			copy(g.best, g.cand)
		}
	}
	g.cachedRound = v.Round
	g.haveCache = true
}

// score simulates one round for all correct nodes under the candidate
// assignment and measures the resulting disagreement. With a batch
// stepper the candidate matrix doubles as the patch rows and all
// correct nodes step in one call.
func (g *Greedy) score(v *View) int {
	n := len(v.States)
	nf := len(g.faulty)
	if g.batch != nil {
		for to := 0; to < n; to++ {
			if v.Faulty[to] {
				g.rows[to] = nil
				continue
			}
			g.rows[to] = g.cand[to*nf : (to+1)*nf : (to+1)*nf]
		}
		p := alg.Patches{Faulty: v.Faulty, Senders: g.faulty, Values: g.rows}
		g.batch.StepAll(g.next, v.States, &p, g.rngs)
	} else {
		for node := 0; node < n; node++ {
			if v.Faulty[node] {
				continue
			}
			for u := 0; u < n; u++ {
				if v.Faulty[u] {
					g.recv[u] = g.cand[node*nf+int(g.colOf[u])]
				} else {
					g.recv[u] = v.States[u]
				}
			}
			g.next[node] = g.alg.Step(node, g.recv, nil)
		}
	}

	g.outSeen = g.outSeen[:0]
	g.stSeen = g.stSeen[:0]
	for node := 0; node < n; node++ {
		if v.Faulty[node] {
			continue
		}
		st := g.next[node]
		out := g.alg.Output(node, st)
		if !containsInt(g.outSeen, out) {
			g.outSeen = append(g.outSeen, out)
		}
		if !containsState(g.stSeen, st) {
			g.stSeen = append(g.stSeen, st)
		}
	}
	return len(g.outSeen)*n + len(g.stSeen)
}

func containsInt(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func containsState(xs []alg.State, x alg.State) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
