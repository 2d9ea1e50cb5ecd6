package sim_test

import (
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/recursion"
	"github.com/synchcount/synchcount/internal/sim"
)

// The BenchmarkKernel_* pairs measure the vectorized round kernel
// against the retained scalar reference loop on identical
// configurations, reporting ns/round. They are the source of the
// BENCH_<pr>.json trajectory artifacts (`make bench-json`) and of the
// CI bench-smoke regression gate (`make bench-smoke`), which fails
// when the kernel's advantage drops below the guard ratio.
// 2048 rounds per trial amortises the per-trial setup (RNG seeding,
// scratch checkout) that both loops share identically, so the ratio
// measures the loops themselves — the long-horizon RunFull regime of
// the violation-persistence workloads.
const benchRounds = 2048

func benchKernel(b *testing.B, a alg.Algorithm, adv adversary.Adversary, faults []int, vectorized bool) {
	b.Helper()
	cfg := sim.Config{
		Alg:       a,
		Faulty:    faults,
		Adv:       adv,
		Seed:      5,
		MaxRounds: benchRounds,
		StopEarly: false,
	}
	// Keep these pairs measuring the vectorized path: capable
	// algorithms would otherwise take the bit-sliced path, which has
	// its own BenchmarkBitslice_* pairs (bitslice_bench_test.go).
	run := sim.RunVectorized
	if !vectorized {
		run = sim.RunReference
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchRounds), "ns/round")
}

// The headline cell of the acceptance bar: a BatchStepper algorithm at
// n = 64, f = 15. The recursive constructions cannot encode that cell
// on 64-bit state spaces (ecount's balanced split tops out at f = 7
// for n = 64 before hitting the 2^62 codec limit), so the folklore
// randomised counter — a batch stepper whose shared statistic is the
// pair of bit counts — carries it, with the deepest feasible
// construction cells benchmarked alongside.
func benchRandAgree(b *testing.B) alg.Algorithm {
	b.Helper()
	a, err := counter.NewRandomizedAgree(64, 15)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// The silent (crash) adversary costs O(1) per message, so this pair
// isolates the kernel itself: fan-out plus stepping, not adversary
// message synthesis (which both loops pay identically).
func BenchmarkKernel_Reference_RandAgree_n64_f15(b *testing.B) {
	benchKernel(b, benchRandAgree(b), adversary.Silent{}, benchSpread(64, 15), false)
}

func BenchmarkKernel_Vectorized_RandAgree_n64_f15(b *testing.B) {
	benchKernel(b, benchRandAgree(b), adversary.Silent{}, benchSpread(64, 15), true)
}

// The deepest 1508.02535 balanced recursion that fits n = 64 on 64-bit
// state spaces: three levels, f = 7.
func benchECount(b *testing.B) alg.Algorithm {
	b.Helper()
	a, err := ecount.New(64, 7, 8)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkKernel_Reference_ECount_n64_f7(b *testing.B) {
	benchKernel(b, benchECount(b), splitVote, benchSpread(64, 7), false)
}

func BenchmarkKernel_Vectorized_ECount_n64_f7(b *testing.B) {
	benchKernel(b, benchECount(b), splitVote, benchSpread(64, 7), true)
}

// Splitvote shows every receiver one of two rows, so the vectorized
// kernel steps two receiver classes a round. Equivocate shows every
// receiver its own row: this pair keeps the unshared per-receiver path
// under the kernel gate.
func BenchmarkKernel_Reference_ECount_n64_f7_Equivocate(b *testing.B) {
	benchKernel(b, benchECount(b), adversary.Equivocate{}, benchSpread(64, 7), false)
}

func BenchmarkKernel_Vectorized_ECount_n64_f7_Equivocate(b *testing.B) {
	benchKernel(b, benchECount(b), adversary.Equivocate{}, benchSpread(64, 7), true)
}

// The source paper's Figure 2 stack A(36, 7): three stacked Theorem 1
// levels batch-stepping recursively.
func benchFigure2(b *testing.B) alg.Algorithm {
	b.Helper()
	plan, err := recursion.Figure2(10)
	if err != nil {
		b.Fatal(err)
	}
	top, _, _, err := recursion.Build(plan)
	if err != nil {
		b.Fatal(err)
	}
	return top
}

func BenchmarkKernel_Reference_Figure2_n36_f7(b *testing.B) {
	benchKernel(b, benchFigure2(b), splitVote, benchSpread(36, 7), false)
}

func BenchmarkKernel_Vectorized_Figure2_n36_f7(b *testing.B) {
	benchKernel(b, benchFigure2(b), splitVote, benchSpread(36, 7), true)
}

func benchSpread(n, f int) []int { return spreadFaults(n, f) }
