package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
)

// persistenceResult reports the outcome of checkPersistence.
type persistenceResult struct {
	// OK reports that from every agreed configuration, under every fault
	// set and every Byzantine filling, every correct node deterministically
	// moves to the incremented output.
	OK bool
	// Violation describes the first failure found (valid when !OK).
	Violation string
	// ConfigsChecked counts (configuration, fault set) pairs examined.
	ConfigsChecked uint64
}

// checkPersistence exhaustively verifies the Lemma 5 analogue for any
// algorithm, randomised ones included: once all correct nodes hold the
// same state, the next state of every correct node must be unique
// (independent of both the Byzantine messages and the node's coins) and
// its output must advance by one modulo c.
//
// This is the property that makes randomised counters' stabilisation
// permanent: the coin-flip branches may only be taken *before*
// agreement. For randomised algorithms the uniqueness check is performed
// by stepping each configuration with several distinct RNGs and
// demanding identical results — sound for the algorithms in this
// repository, whose agreement branches are coin-free by construction
// (the check would catch a stray rng read with overwhelming probability).
//
// Unlike Check, only *unanimous* configurations are examined (|X| of
// them per fault set), so it scales to algorithms far beyond the full
// model checker's reach.
func checkPersistence(a alg.Algorithm, opts Options) (persistenceResult, error) {
	opts.setDefaults()
	n := a.N()
	space := a.StateSpace()
	c := a.C()
	if space > opts.MaxConfigs {
		return persistenceResult{}, fmt.Errorf("verify: %d unanimous configurations exceed limit %d", space, opts.MaxConfigs)
	}

	rngs := []*rand.Rand{
		nil, // deterministic algorithms must accept nil
		rand.New(rand.NewSource(1)),
		rand.New(rand.NewSource(0x5eed)),
	}
	if !alg.IsDeterministic(a) {
		rngs = rngs[1:]
	}

	var res persistenceResult
	res.OK = true
	recv := make([]alg.State, n)
	for _, faultSet := range faultSets(n, a.F()) {
		faulty := make([]bool, n)
		for _, i := range faultSet {
			faulty[i] = true
		}
		numFillings := uint64(1)
		for range faultSet {
			if numFillings > opts.MaxFillings/space {
				return persistenceResult{}, fmt.Errorf("verify: Byzantine fillings exceed limit %d", opts.MaxFillings)
			}
			numFillings *= space
		}
		for s := uint64(0); s < space; s++ {
			res.ConfigsChecked++
			wantOut := -1
			for node := 0; node < n; node++ {
				if faulty[node] {
					continue
				}
				if wantOut == -1 {
					wantOut = (a.Output(node, s) + 1) % c
				} else if w := (a.Output(node, s) + 1) % c; w != wantOut {
					// Nodes may legitimately map the same state to
					// different outputs only if h depends on the node;
					// unanimity of outputs is part of the precondition.
					wantOut = -2
					break
				}
			}
			if wantOut < 0 {
				// Not an output-unanimous configuration; persistence
				// does not speak about it.
				continue
			}
			for node := 0; node < n && res.OK; node++ {
				if faulty[node] {
					continue
				}
				first := true
				var expect alg.State
				for fill := uint64(0); fill < numFillings; fill++ {
					for u := 0; u < n; u++ {
						recv[u] = s
					}
					ff := fill
					for _, fnode := range faultSet {
						recv[fnode] = ff % space
						ff /= space
					}
					for _, rng := range rngs {
						next := a.Step(node, recv, rng)
						if first {
							expect, first = next, false
						} else if next != expect {
							res.OK = false
							res.Violation = fmt.Sprintf(
								"state %d, faults %v, node %d: next state depends on Byzantine input or coins (%d vs %d)",
								s, faultSet, node, expect, next)
							break
						}
						if got := a.Output(node, next); got != wantOut {
							res.OK = false
							res.Violation = fmt.Sprintf(
								"state %d, faults %v, node %d: output %d, want %d",
								s, faultSet, node, got, wantOut)
							break
						}
					}
					if !res.OK {
						break
					}
				}
			}
			if !res.OK {
				return res, nil
			}
		}
	}
	return res, nil
}

func TestPersistenceOfBaselines(t *testing.T) {
	algs := []struct {
		name string
		mk   func() (alg.Algorithm, error)
	}{
		{"trivial", func() (alg.Algorithm, error) { return counter.NewTrivial(6) }},
		{"maxstep", func() (alg.Algorithm, error) { return counter.NewMaxStep(4, 5) }},
		{"randomized-agree", func() (alg.Algorithm, error) { return counter.NewRandomizedAgree(4, 1) }},
		{"randomized-agree-7-2", func() (alg.Algorithm, error) { return counter.NewRandomizedAgree(7, 2) }},
	}
	for _, tc := range algs {
		t.Run(tc.name, func(t *testing.T) {
			a, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			res, err := checkPersistence(a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK {
				t.Fatalf("persistence violated: %s", res.Violation)
			}
			if res.ConfigsChecked == 0 {
				t.Fatal("nothing checked")
			}
		})
	}
}

// coinAfterAgreement keeps flipping coins even when everyone agrees — a
// broken randomised counter whose stabilisation can be lost.
type coinAfterAgreement struct{}

func (coinAfterAgreement) N() int             { return 4 }
func (coinAfterAgreement) F() int             { return 1 }
func (coinAfterAgreement) C() int             { return 2 }
func (coinAfterAgreement) StateSpace() uint64 { return 2 }
func (coinAfterAgreement) Step(_ int, recv []alg.State, rng *rand.Rand) alg.State {
	return alg.State(rng.Intn(2))
}
func (coinAfterAgreement) Output(_ int, s alg.State) int { return int(s % 2) }

func TestPersistenceRejectsCoinAfterAgreement(t *testing.T) {
	res, err := checkPersistence(coinAfterAgreement{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("an always-random algorithm must fail the persistence check")
	}
}

// byzSwayed lets the Byzantine slot decide the successor even from
// unanimity.
type byzSwayed struct{}

func (byzSwayed) N() int             { return 4 }
func (byzSwayed) F() int             { return 1 }
func (byzSwayed) C() int             { return 2 }
func (byzSwayed) StateSpace() uint64 { return 2 }
func (byzSwayed) Step(_ int, recv []alg.State, _ *rand.Rand) alg.State {
	// Parity of all received bits: one Byzantine bit flips the result.
	var x alg.State
	for _, s := range recv {
		x ^= s & 1
	}
	return x
}
func (byzSwayed) Output(_ int, s alg.State) int { return int(s % 2) }
func (byzSwayed) Deterministic() bool           { return true }

func TestPersistenceRejectsByzantineInfluence(t *testing.T) {
	res, err := checkPersistence(byzSwayed{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("a parity-of-all-inputs rule must fail the persistence check")
	}
}

func TestPersistenceLimits(t *testing.T) {
	triv, _ := counter.NewTrivial(64)
	if _, err := checkPersistence(triv, Options{MaxConfigs: 8}); err == nil {
		t.Fatal("config limit not enforced")
	}
}
