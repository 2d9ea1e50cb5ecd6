package sim_test

import (
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/pull"
	"github.com/synchcount/synchcount/internal/sim"
)

// The BenchmarkPull_* pairs measure the pulling model's sparse batch
// round against the retained closure reference loop on identical
// configurations, reporting ns/round. They feed the BENCH_<pr>.json
// trajectory artifacts (`make bench-json`) and the CI bench-smoke
// regression gate (`make bench-smoke`), which fails when the sparse
// path's advantage drops below the guard ratio.
const (
	// Long-horizon RunPullFull regime for the construction counter:
	// enough rounds to amortise per-trial setup that both loops share.
	benchSampledRounds = 512
	// The gossip cell pays ~n·k work per round on both sides, so fewer
	// rounds keep the reference side of the n = 10^4 pair minute-free.
	benchGossipRounds = 64
)

func benchPull(b *testing.B, a sim.PullAlgorithm, adv adversary.Adversary, faults []int, rounds uint64, sparse bool) {
	b.Helper()
	cfg := sim.PullConfig{
		Alg:       a,
		Faulty:    faults,
		Adv:       adv,
		Seed:      5,
		MaxRounds: rounds,
		StopEarly: false,
	}
	run := sim.RunPullFull
	if !sparse {
		run = sim.RunPullReference
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rounds), "ns/round")
}

// The Theorem 4 sampled counter on the A(12,3) stack with fresh coins:
// the randomised-sampling regime, where the sparse path's decode-once
// caches and pooled dense tallies carry the win.
func BenchmarkPull_Reference_Sampled_A12_M24(b *testing.B) {
	benchPull(b, sampled123(b, 8, 24, false, 1), adversary.Equivocate{}, []int{2, 9}, benchSampledRounds, false)
}

func BenchmarkPull_Sparse_Sampled_A12_M24(b *testing.B) {
	benchPull(b, sampled123(b, 8, 24, false, 1), adversary.Equivocate{}, []int{2, 9}, benchSampledRounds, true)
}

// The scale workload: fixed-wiring gossip at n = 10^4 with a 1% fault
// density — the cell the CI gate holds the sparse ≥ 1.5x line on (the
// committed trajectory shows well above that; see BENCH_6.json).
func benchGossip(b *testing.B) *pull.Gossip {
	b.Helper()
	g, err := pull.NewGossip(10000, 8, 32, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkPull_Reference_Gossip_n10000_k32(b *testing.B) {
	benchPull(b, benchGossip(b), adversary.Equivocate{}, spreadFaults(10000, 100), benchGossipRounds, false)
}

func BenchmarkPull_Sparse_Gossip_n10000_k32(b *testing.B) {
	benchPull(b, benchGossip(b), adversary.Equivocate{}, spreadFaults(10000, 100), benchGossipRounds, true)
}
