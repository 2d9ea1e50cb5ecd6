// Package verify is an exhaustive model checker for small synchronous
// counters.
//
// For a deterministic algorithm A = (X, g, h) on n nodes with resilience
// f, it checks — for every fault set |F| ≤ f, every initial configuration
// of correct-node states, and every Byzantine strategy (including full
// per-receiver equivocation) — that every execution stabilises, and it
// computes the exact worst-case stabilisation time T(A).
//
// Method. Fix a fault set F. A configuration assigns a state to each
// correct node (the paper's projection π_F). Because correct nodes are
// deterministic and the adversary chooses the faulty slots seen by each
// receiver independently, the set of possible next states of correct
// node i from configuration e is
//
//	next_i(e) = { g(i, x) : x agrees with e on correct nodes },
//
// and d is reachable from e iff d_i ∈ next_i(e) for every i — exactly
// the reachability relation of Section 2.
//
// The "good" region G is the largest set of configurations that
// (a) have a common output, (b) have singleton next_i sets (the
// adversary has no influence any more), and (c) whose unique successor
// increments the output modulo c and lies in G. G is computed as a
// greatest fixpoint. The algorithm is a correct counter for fault set F
// iff the complement of G, under the reachability relation, is acyclic;
// the exact stabilisation time is then the longest path through the
// complement. A cycle outside G is returned as a counterexample: an
// adversary strategy that keeps the system from counting forever.
//
// Requirement (b) makes the check sound but formally stricter than the
// paper's definition: it demands that stabilised nodes' *states* (not
// just outputs) be beyond Byzantine influence. Every algorithm in this
// repository and every 2-state algorithm with h(s) = s has this
// property; a hypothetical counter that keeps adversary-dependent
// scratch bits after stabilising would be rejected.
//
// Check is the package's one entry point; the synthesis search
// (internal/synth) and the facade's Verify call it. The package tests
// also carry checkPersistence, the Lemma 5 analogue of 1503.06702:
// from every unanimous configuration the next state must be unique and
// count on, which scales to randomised counters far beyond Check's
// reach. It is test-only; no command runs it.
package verify

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Options bound the exhaustive search.
type Options struct {
	// MaxConfigs caps |X|^(n-|F|), the number of configurations explored
	// per fault set. Default 1 << 21.
	MaxConfigs uint64
	// MaxFillings caps |X|^|F|, the number of Byzantine fillings
	// enumerated per (configuration, node). Default 1 << 12.
	MaxFillings uint64
}

func (o *Options) setDefaults() {
	if o.MaxConfigs == 0 {
		o.MaxConfigs = 1 << 21
	}
	if o.MaxFillings == 0 {
		o.MaxFillings = 1 << 12
	}
}

// Counterexample describes a failure to stabilise.
type Counterexample struct {
	// FaultSet is the Byzantine node set under which the failure occurs.
	FaultSet []int
	// Cycle is a sequence of configurations (states of correct nodes, in
	// node order) that the adversary can repeat forever without the
	// outputs ever counting correctly.
	Cycle [][]alg.State
}

// Result is the outcome of a full check.
type Result struct {
	// OK reports whether the algorithm is a correct self-stabilising
	// f-resilient c-counter (within the soundness caveat of the package
	// comment).
	OK bool
	// WorstTime is the exact worst-case stabilisation time over all
	// fault sets, initial configurations and adversary strategies.
	// Valid when OK.
	WorstTime uint64
	// WorstFaultSet attains WorstTime.
	WorstFaultSet []int
	// Counterexample is non-nil when !OK.
	Counterexample *Counterexample
	// ConfigsExplored counts configurations across all fault sets.
	ConfigsExplored uint64
}

// Check model-checks the algorithm for every fault set of size at most
// a.F().
func Check(a alg.Algorithm, opts Options) (Result, error) {
	opts.setDefaults()
	if !alg.IsDeterministic(a) {
		return Result{}, errors.New("verify: only deterministic algorithms can be model-checked")
	}
	var res Result
	res.OK = true
	n := a.N()
	for _, fs := range faultSets(n, a.F()) {
		r, err := checkFaultSet(a, fs, opts)
		if err != nil {
			return Result{}, err
		}
		res.ConfigsExplored += r.ConfigsExplored
		if !r.OK {
			return r, nil
		}
		if r.WorstTime >= res.WorstTime {
			res.WorstTime = r.WorstTime
			res.WorstFaultSet = fs
		}
	}
	return res, nil
}

// faultSets enumerates all subsets of [n] of size at most f, the empty
// set included.
func faultSets(n, f int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		out = append(out, append([]int(nil), cur...))
		if len(cur) == f {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// checkFaultSet model-checks the algorithm under one fixed fault set.
func checkFaultSet(a alg.Algorithm, faultSet []int, opts Options) (Result, error) {
	opts.setDefaults()
	if !alg.IsDeterministic(a) {
		return Result{}, errors.New("verify: only deterministic algorithms can be model-checked")
	}
	n := a.N()
	space := a.StateSpace()
	faulty := make([]bool, n)
	for _, i := range faultSet {
		if i < 0 || i >= n {
			return Result{}, fmt.Errorf("verify: fault node %d out of range", i)
		}
		faulty[i] = true
	}
	var correct []int
	for i := 0; i < n; i++ {
		if !faulty[i] {
			correct = append(correct, i)
		}
	}
	nc := len(correct)
	if nc == 0 {
		return Result{}, errors.New("verify: no correct nodes")
	}

	numConfigs := uint64(1)
	for i := 0; i < nc; i++ {
		if numConfigs > opts.MaxConfigs/space {
			return Result{}, fmt.Errorf("verify: %d^%d configurations exceed limit %d", space, nc, opts.MaxConfigs)
		}
		numConfigs *= space
	}
	numFillings := uint64(1)
	for range faultSet {
		if numFillings > opts.MaxFillings/space {
			return Result{}, fmt.Errorf("verify: %d^%d Byzantine fillings exceed limit %d", space, len(faultSet), opts.MaxFillings)
		}
		numFillings *= space
	}

	chk := &checker{
		a:        a,
		n:        n,
		c:        a.C(),
		space:    space,
		correct:  correct,
		faultSet: faultSet,
		configs:  numConfigs,
		fillings: numFillings,
	}
	return chk.run()
}

type checker struct {
	a        alg.Algorithm
	n, c     int
	space    uint64
	correct  []int
	faultSet []int
	configs  uint64
	fillings uint64

	// nexts[cfg] lists, per correct node position, the sorted distinct
	// possible next states.
	nexts [][][]alg.State
}

func (c *checker) decode(cfg uint64, dst []alg.State) []alg.State {
	dst = dst[:0]
	for range c.correct {
		dst = append(dst, cfg%c.space)
		cfg /= c.space
	}
	return dst
}

func (c *checker) encode(states []alg.State) uint64 {
	var cfg uint64
	for i := len(states) - 1; i >= 0; i-- {
		cfg = cfg*c.space + states[i]
	}
	return cfg
}

func (c *checker) run() (Result, error) {
	// Phase 1: next-state sets for every configuration and node.
	c.nexts = make([][][]alg.State, c.configs)
	recv := make([]alg.State, c.n)
	states := make([]alg.State, 0, len(c.correct))
	var rng *rand.Rand // nil: algorithms are deterministic
	for cfg := uint64(0); cfg < c.configs; cfg++ {
		states = c.decode(cfg, states)
		perNode := make([][]alg.State, len(c.correct))
		for pos, node := range c.correct {
			seen := make(map[alg.State]bool, 4)
			for fill := uint64(0); fill < c.fillings; fill++ {
				for p, s := range states {
					recv[c.correct[p]] = s
				}
				ff := fill
				for _, fnode := range c.faultSet {
					recv[fnode] = ff % c.space
					ff /= c.space
				}
				next := c.a.Step(node, recv, rng)
				if next >= c.space {
					return Result{}, fmt.Errorf("verify: node %d stepped outside state space", node)
				}
				seen[next] = true
			}
			lst := make([]alg.State, 0, len(seen))
			for s := range seen {
				lst = append(lst, s)
			}
			perNode[pos] = lst
		}
		c.nexts[cfg] = perNode
	}

	// Phase 2: greatest fixpoint for the good region G.
	inG := make([]bool, c.configs)
	commonOut := make([]int, c.configs)
	succ := make([]uint64, c.configs) // unique successor for singleton configs
	for cfg := uint64(0); cfg < c.configs; cfg++ {
		states = c.decode(cfg, states)
		out := -1
		ok := true
		for pos, node := range c.correct {
			o := c.a.Output(node, states[pos])
			if out == -1 {
				out = o
			} else if o != out {
				ok = false
				break
			}
		}
		if ok {
			for _, nx := range c.nexts[cfg] {
				if len(nx) != 1 {
					ok = false
					break
				}
			}
		}
		inG[cfg] = ok
		commonOut[cfg] = out
		if ok {
			nextStates := make([]alg.State, len(c.correct))
			for pos := range c.correct {
				nextStates[pos] = c.nexts[cfg][pos][0]
			}
			succ[cfg] = c.encode(nextStates)
		}
	}
	for changed := true; changed; {
		changed = false
		for cfg := uint64(0); cfg < c.configs; cfg++ {
			if !inG[cfg] {
				continue
			}
			d := succ[cfg]
			if !inG[d] || commonOut[d] != (commonOut[cfg]+1)%c.c {
				inG[cfg] = false
				changed = true
			}
		}
	}

	// Phase 3: longest path / cycle detection on the complement of G.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, c.configs)
	depth := make([]uint64, c.configs) // longest bad path starting here

	var cycle []uint64
	var visit func(cfg uint64) (uint64, bool)
	visit = func(cfg uint64) (uint64, bool) {
		if inG[cfg] {
			return 0, true
		}
		switch color[cfg] {
		case black:
			return depth[cfg], true
		case gray:
			cycle = append(cycle, cfg)
			return 0, false
		}
		color[cfg] = gray
		var worst uint64
		if ok := c.forEachSuccessor(cfg, func(d uint64) bool {
			t, ok := visit(d)
			if !ok {
				return false
			}
			if t+1 > worst {
				worst = t + 1
			}
			return true
		}); !ok {
			if color[cfg] == gray {
				cycle = append(cycle, cfg)
			}
			return 0, false
		}
		color[cfg] = black
		depth[cfg] = worst
		return worst, true
	}

	res := Result{OK: true, ConfigsExplored: c.configs, WorstFaultSet: c.faultSet}
	for cfg := uint64(0); cfg < c.configs; cfg++ {
		t, ok := visit(cfg)
		if !ok {
			// cycle holds the reverse DFS path from the repeated
			// configuration back up; trim it to one loop iteration.
			ce := &Counterexample{FaultSet: c.faultSet}
			end := len(cycle) - 1
			for j := 1; j < len(cycle); j++ {
				if cycle[j] == cycle[0] {
					end = j
					break
				}
			}
			for i := end; i >= 0; i-- {
				ce.Cycle = append(ce.Cycle, c.decode(cycle[i], nil))
			}
			return Result{
				OK:              false,
				Counterexample:  ce,
				ConfigsExplored: c.configs,
				WorstFaultSet:   c.faultSet,
			}, nil
		}
		if t > res.WorstTime {
			res.WorstTime = t
		}
	}
	return res, nil
}

// forEachSuccessor enumerates the product of per-node next-state sets.
// It stops and returns false as soon as fn returns false.
func (c *checker) forEachSuccessor(cfg uint64, fn func(d uint64) bool) bool {
	sets := c.nexts[cfg]
	idx := make([]int, len(sets))
	states := make([]alg.State, len(sets))
	for {
		for pos := range sets {
			states[pos] = sets[pos][idx[pos]]
		}
		if !fn(c.encode(states)) {
			return false
		}
		pos := 0
		for pos < len(sets) {
			idx[pos]++
			if idx[pos] < len(sets[pos]) {
				break
			}
			idx[pos] = 0
			pos++
		}
		if pos == len(sets) {
			return true
		}
	}
}
