package sim

import (
	"fmt"

	"github.com/synchcount/synchcount/internal/harness"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
)

// RunReference runs the simulation on the scalar reference loop: the
// kernel-equivalence differential suite (kernel_differential_test.go)
// and the BenchmarkKernel_* comparisons hold the vectorized kernel
// bit-identical to — and measure it against — this path. It honours
// cfg.StopEarly as set by the caller.
func RunReference(cfg Config) (Result, error) { return runMode(cfg, scalarRound, false) }

// RunVectorized runs the simulation on the vectorized kernel with the
// bit-sliced path off, honouring cfg.StopEarly as set by the caller:
// the kernel differential suite and the BenchmarkKernel_* pairs hold
// that path apart from the bit-sliced one, which has its own
// BenchmarkBitslice_* pairs (bitslice_bench_test.go).
func RunVectorized(cfg Config) (Result, error) { return runMode(cfg, nil, false) }

// scalarRound is the historical scalar loop: a fresh O(n) receive
// vector per receiver, one adversary call per (faulty sender, receiver)
// pair and one interface Step call per correct node.
func scalarRound(a alg.Algorithm, adv adversary.Adversary, view *adversary.View, sc *runScratch, space uint64) error {
	states, next, recv, faulty := sc.states, sc.next, sc.recv, sc.faulty
	for v := range states {
		if faulty[v] {
			next[v] = states[v]
			continue
		}
		for u := range states {
			if faulty[u] {
				recv[u] = adv.Message(view, u, v) % space
			} else {
				recv[u] = states[u]
			}
		}
		next[v] = a.Step(v, recv, sc.nodeRngs[v])
		if next[v] >= space {
			return fmt.Errorf("sim: node %d stepped outside state space (%d >= %d)", v, next[v], space)
		}
	}
	return nil
}

// FastForwardEligible exposes the fast-forward gate to the external
// test package: the eligibility tests pin exactly which configurations
// may enter the engine.
func FastForwardEligible(cfg Config) (period uint64, ok bool) {
	return fastForwardEligible(&cfg)
}

// SetConfigHashForTest swaps the fast-forward configuration hash and
// returns a restore func. The collision property tests install
// degenerate hashes (constant, single-bit) to prove that correctness
// rests entirely on the full configuration verification: every round
// then hash-matches the checkpoint and only the verified comparisons
// may conclude a cycle.
func SetConfigHashForTest(h func([]State) uint64) (restore func()) {
	old := ffHash
	ffHash = h
	return func() { ffHash = old }
}

// State re-exports alg.State for the hash-override hook signature.
type State = uint64

// CheckMemoEntry reports why a loaded trajectory-memo value is not a
// well-formed fact for its key: it must be a trajectory entry whose
// configuration hashes to the key's hash and whose observation ring is
// non-empty. FuzzLoadTrajectoryMemo holds every accepted entry to it.
func CheckMemoEntry(k harness.TrajectoryKey, v any) error {
	e, ok := v.(*trajectoryEntry)
	if !ok {
		return fmt.Errorf("value is %T, not a trajectory entry", v)
	}
	if h := ffHash(e.config); h != k.Hash {
		return fmt.Errorf("configuration hashes to %d, key says %d", h, k.Hash)
	}
	if len(e.ring) == 0 {
		return fmt.Errorf("empty observation ring")
	}
	return nil
}

// LoadTrajectoryMemo and SaveTrajectoryMemo are the stream forms under
// the -memo file functions, for the memo-file tests.
var (
	LoadTrajectoryMemo = loadTrajectoryMemo
	SaveTrajectoryMemo = saveTrajectoryMemo
)
