package sim

import (
	"fmt"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
)

// RunReference runs the simulation on the scalar reference loop: the
// kernel-equivalence differential suite (kernel_differential_test.go)
// and the BenchmarkKernel_* comparisons hold the vectorized kernel
// bit-identical to — and measure it against — this path. It honours
// cfg.StopEarly as set by the caller.
func RunReference(cfg Config) (Result, error) {
	return runMode(cfg, func(adv adversary.Adversary, view *adversary.View, sc *runScratch) error {
		return scalarRound(cfg.Alg, adv, view, sc)
	}, false)
}

// RunVectorized runs the simulation on the vectorized kernel with the
// bit-sliced path off, honouring cfg.StopEarly as set by the caller:
// the kernel differential suite and the BenchmarkKernel_* pairs hold
// that path apart from the bit-sliced one, which has its own
// BenchmarkBitslice_* pairs (bitslice_bench_test.go).
func RunVectorized(cfg Config) (Result, error) { return runMode(cfg, nil, false) }

// scalarRound is the historical scalar loop: a fresh O(n) receive
// vector per receiver, one adversary call per (faulty sender, receiver)
// pair and one interface Step call per correct node.
func scalarRound(a alg.Algorithm, adv adversary.Adversary, view *adversary.View, sc *runScratch) error {
	states, next, recv, faulty, space := sc.states, sc.next, sc.recv, sc.faulty, view.Space
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

// RunPull runs the pulling model on the sparse batch round where the
// algorithm has one, honouring cfg.StopEarly as set by the caller.
func RunPull(cfg PullConfig) (PullResult, error) { return runPull(cfg, false) }

// RunPullReference runs the pulling model on the per-node closure
// reference loop regardless of batch support, honouring cfg.StopEarly:
// the pull differential suite and the BenchmarkPull_* pairs measure the
// sparse batch round against it.
func RunPullReference(cfg PullConfig) (PullResult, error) { return runPull(cfg, true) }

// PullBatchStepper names the sparse batch interface for the external
// test package, which asserts that every batch algorithm of
// internal/pull implements it (a signature drift would otherwise fall
// back to the reference loop silently).
type PullBatchStepper = pullBatchStepper

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
