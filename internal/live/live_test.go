package live

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/registry"
)

func buildAlg(t *testing.T, name string, n, f, c int) alg.Algorithm {
	t.Helper()
	a, err := registry.Build(name, registry.Params{N: n, F: f, C: c})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func declaredBound(t *testing.T, a alg.Algorithm) uint64 {
	t.Helper()
	b, ok := a.(alg.Bound)
	if !ok {
		t.Fatal("algorithm declares no stabilisation bound")
	}
	return b.StabilisationBound()
}

// A fault-free live run must stabilise and then count correctly to the
// horizon, with every node making every barrier.
func TestLiveFaultFreeStabilises(t *testing.T) {
	a := buildAlg(t, "maxstep", 6, 0, 4)
	var lastOnTime int
	rt, err := New(Config{
		Alg:    a,
		Seed:   3,
		Rounds: 60,
		Window: 12,
		OnRound: func(round uint64, agree bool, common, onTime int) {
			lastOnTime = onTime
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stabilised {
		t.Fatal("fault-free run did not stabilise")
	}
	if rep.Violations != 0 {
		t.Fatalf("%d violations in a fault-free run", rep.Violations)
	}
	if rep.Rounds != 60 {
		t.Fatalf("ran %d rounds, want 60", rep.Rounds)
	}
	if lastOnTime != a.N() {
		t.Fatalf("last round had %d/%d nodes on time", lastOnTime, a.N())
	}
}

func soakConfig(seed int64, n int, kinds []string) (ChaosConfig, uint64) {
	const window = 32 // DefaultWindowFor(c=8)
	gap := uint64(73) + window + 8
	return ChaosConfig{
		Seed:     seed,
		N:        n,
		Kinds:    kinds,
		Warmup:   gap,
		Bursts:   2,
		BurstLen: 6,
		Gap:      gap,
	}, window
}

func runSoak(t *testing.T, seed int64, kinds []string) *Report {
	t.Helper()
	a := buildAlg(t, "ecount", 8, 1, 8)
	cfg, window := soakConfig(seed, 8, kinds)
	sched, err := NewSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{Alg: a, Seed: seed, Window: window, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// The headline robustness contract: crash/restart, message loss and a
// partition per burst, and the live network recovers within the stack's
// declared stabilisation bound after every burst.
func TestLiveRecoveryWithinBound(t *testing.T) {
	a := buildAlg(t, "ecount", 8, 1, 8)
	rep := runSoak(t, 7, []string{"crash", "loss", "partition"})
	if err := rep.CheckRecovery(declaredBound(t, a)); err != nil {
		t.Fatal(err)
	}
	if rep.Crashes != 2 || rep.Restarts != 2 {
		t.Fatalf("injected %d crashes / %d restarts, want 2 / 2", rep.Crashes, rep.Restarts)
	}
	if rep.Dropped == 0 || rep.Suppressed == 0 {
		t.Fatalf("chaos injected nothing: %d dropped, %d partition-suppressed", rep.Dropped, rep.Suppressed)
	}
	if len(rep.Recoveries) != 2 {
		t.Fatalf("%d recovery records, want one per burst", len(rep.Recoveries))
	}
}

func TestNewValidation(t *testing.T) {
	good := func(t *testing.T) alg.Algorithm { return buildAlg(t, "maxstep", 4, 0, 4) }
	sched := &Schedule{Seed: 1, N: 6, Rounds: 10}

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil algorithm", Config{Rounds: 10}, "nil algorithm"},
		{"no horizon", Config{Alg: good(t)}, "no horizon"},
		{"schedule size mismatch", Config{Alg: good(t), Schedule: sched}, "n = 6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.cfg)
			if err == nil {
				t.Fatal("config accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	rt, err := New(Config{Alg: good(t), Rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(context.Background()); err == nil {
		t.Fatal("second Run on the same runtime accepted")
	}
}

func TestRunHonoursContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rt, err := New(Config{Alg: buildAlg(t, "maxstep", 4, 0, 4), Rounds: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := rt.Run(ctx); err == nil {
			t.Error("cancelled run returned no error")
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return")
	}
}
