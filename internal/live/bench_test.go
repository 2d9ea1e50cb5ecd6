package live

import (
	"context"
	"testing"

	"github.com/synchcount/synchcount/internal/registry"
)

// benchLive drives full seeded runs of a fixed horizon per iteration.
//
// The maxstep cells run a Step that is allocation-free and near-instant,
// so they measure the round engine — barriers, routing, decoding, arena
// — and not the algorithm riding it. The ecount cell reports the
// end-to-end soak stack instead, where ecount's own Step is the
// largest per-round cost. The
// names carry the Optimized_/EndToEndOpt_ tags of BENCH_10.json, whose
// reference-engine pairs they were measured against, so `make
// bench-diff` keeps tracking them across trajectory artifacts.
func benchLive(b *testing.B, name string, n, f int, kinds []string) {
	a, err := registry.Build(name, registry.Params{N: n, F: f, C: 8})
	if err != nil {
		b.Fatal(err)
	}
	horizon := uint64(256)
	if n >= 128 {
		horizon = 128
	}
	newSched := func() *Schedule {
		if kinds == nil {
			return nil
		}
		sched, err := NewSchedule(ChaosConfig{
			Seed: 1, N: n, Kinds: kinds,
			Warmup: 16, Bursts: 2, BurstLen: 8, Gap: (horizon - 32) / 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		horizon = sched.Rounds
		return sched
	}
	ctx := context.Background()
	var rounds uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := New(Config{Alg: a, Seed: 1, Rounds: horizon, Schedule: newSched()})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := rt.Run(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Rounds != horizon {
			b.Fatalf("ran %d rounds, want %d", rep.Rounds, horizon)
		}
		rounds += rep.Rounds
	}
	b.StopTimer()
	if rounds > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
	}
}

func BenchmarkLive_Optimized_FaultFree_n32(b *testing.B) {
	benchLive(b, "maxstep", 32, 0, nil)
}

func BenchmarkLive_Optimized_CrashPartition_n32(b *testing.B) {
	benchLive(b, "maxstep", 32, 0, []string{"crash", "partition"})
}

func BenchmarkLive_Optimized_FaultFree_n128(b *testing.B) {
	benchLive(b, "maxstep", 128, 0, nil)
}

// The PR 9 soak stack (ecount n=32 f=3 c=8), end to end.
func BenchmarkLive_EndToEndOpt_Ecount_n32(b *testing.B) {
	benchLive(b, "ecount", 32, 3, nil)
}

// The arena contract, pinned: a fault-free round allocates
// (approximately) nothing once the ring is warm. Two horizons differing
// by 256 rounds cancel all per-run setup (goroutines, channels, node
// scratch), leaving the pure per-round marginal cost. maxstep's Step is
// near-instant, so its cells isolate the transport — the n=128 one at
// the live-engine benchmark's size; the ecount n=32 f=3
// cell is the soak stack, whose per-node Step runs on the counter's
// pooled scratch and is held to the same budget.
func TestFaultFreeAllocsPerRound(t *testing.T) {
	for _, tc := range []struct {
		cell, name string
		n, f, c    int
		pooled     bool // Step runs on sync.Pool scratch
	}{
		{"maxstep", "maxstep", 8, 0, 8, false},
		{"maxstep_n128", "maxstep", 128, 0, 8, false},
		{"ecount", "ecount", 32, 3, 8, true},
	} {
		t.Run(tc.cell, func(t *testing.T) {
			if tc.pooled && raceEnabled {
				t.Skip("sync.Pool drops pooled scratch at random under the race detector")
			}
			a := buildAlg(t, tc.name, tc.n, tc.f, tc.c)
			measure := func(rounds uint64) float64 {
				return testing.AllocsPerRun(5, func() {
					rt, err := New(Config{Alg: a, Seed: 5, Rounds: rounds, Window: 12})
					if err != nil {
						t.Fatal(err)
					}
					rep, err := rt.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if rep.Rounds != rounds {
						t.Fatalf("ran %d rounds, want %d", rep.Rounds, rounds)
					}
				})
			}
			short := measure(64)
			long := measure(320)
			perRound := (long - short) / 256
			if perRound > 2 {
				t.Errorf("fault-free path allocates %.2f objects/round (runs of 64 vs 320 rounds: %.0f vs %.0f allocs) — the arena budget is ~0, allowing 2 for runtime noise", perRound, short, long)
			}
		})
	}
}
