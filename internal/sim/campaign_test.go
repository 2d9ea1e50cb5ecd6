package sim

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
	"github.com/synchcount/synchcount/internal/counter"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/recursion"
)

func randomizedConfig(t *testing.T) Config {
	t.Helper()
	a, err := counter.NewRandomizedAgree(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Alg:       a,
		Faulty:    []int{2},
		Adv:       splitVote,
		Seed:      7,
		MaxRounds: 1 << 16,
	}
}

// TestCampaignDeterminismAcrossWorkers runs real simulations and
// demands byte-identical JSON at every worker count — the acceptance
// criterion of the parallel engine.
func TestCampaignDeterminismAcrossWorkers(t *testing.T) {
	cfg := randomizedConfig(t)
	cfg.StopEarly = true
	build := func(workers int) harness.Campaign {
		return harness.Campaign{
			Name:    "determinism",
			Seed:    5,
			Workers: workers,
			Scenarios: []harness.Scenario{
				CampaignScenario("randagree-a", cfg, 6),
				CampaignScenario("randagree-b", cfg, 3),
			},
		}
	}
	ref, err := build(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 8} {
		res, err := build(workers).Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var got bytes.Buffer
		if err := res.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("workers=%d: campaign JSON differs from workers=1", workers)
		}
	}
}

// legacyRunMany is the pre-harness sequential implementation of
// RunMany, kept as the regression oracle: the campaign-backed wrapper
// must reproduce its seed derivation and the five statistics it
// aggregates exactly.
func legacyRunMany(cfg Config, trials int) (harness.Stats, error) {
	if trials <= 0 {
		return harness.Stats{}, errors.New("sim: trials must be positive")
	}
	seeder := rand.New(rand.NewSource(cfg.Seed))
	var st harness.Stats
	st.Trials = trials
	var sum float64
	for i := 0; i < trials; i++ {
		c := cfg
		c.Seed = seeder.Int63()
		r, err := Run(c)
		if err != nil {
			return harness.Stats{}, err
		}
		if !r.Stabilised {
			continue
		}
		if st.Stabilised == 0 || r.StabilisationTime < st.MinTime {
			st.MinTime = r.StabilisationTime
		}
		if r.StabilisationTime > st.MaxTime {
			st.MaxTime = r.StabilisationTime
		}
		st.Stabilised++
		sum += float64(r.StabilisationTime)
	}
	if st.Stabilised > 0 {
		st.MeanTime = sum / float64(st.Stabilised)
	}
	return st, nil
}

func TestRunManyMatchesLegacyLoop(t *testing.T) {
	cfg := randomizedConfig(t)
	for _, seed := range []int64{0, 1, 7, 12345} {
		cfg.Seed = seed
		want, err := legacyRunMany(cfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		all, err := RunMany(cfg, 12)
		if err != nil {
			t.Fatal(err)
		}
		got := harness.Stats{
			Trials:     all.Trials,
			Stabilised: all.Stabilised,
			MinTime:    all.MinTime,
			MaxTime:    all.MaxTime,
			MeanTime:   all.MeanTime,
		}
		if got != want {
			t.Fatalf("seed %d: RunMany = %+v, legacy loop = %+v", seed, got, want)
		}
	}
}

func TestAbortStopsRun(t *testing.T) {
	cfg := randomizedConfig(t)
	rounds := 0
	cfg.Abort = func() bool {
		rounds++
		return rounds > 10
	}
	_, err := Run(cfg)
	if !errors.Is(err, errAborted) {
		t.Fatalf("err = %v, want errAborted", err)
	}
	if rounds > 11 {
		t.Fatalf("run continued for %d abort polls after the stop request", rounds)
	}
}

// TestCampaignScenarioFuncBuildsFreshConfigs exercises the per-trial
// constructor path with the greedy adversary, which is stateful and
// must not be shared across concurrent trials. Run under -race this
// doubles as the concurrency-safety check.
func TestCampaignScenarioFuncBuildsFreshConfigs(t *testing.T) {
	plan, err := recursion.Corollary1(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, _, _, err := recursion.Build(plan)
	if err != nil {
		t.Fatal(err)
	}
	bound := a.StabilisationBound()
	c := harness.Campaign{
		Name:    "greedy",
		Seed:    3,
		Workers: 4,
		Scenarios: []harness.Scenario{
			CampaignScenarioFunc("greedy", 8, func(int) (Config, error) {
				adv, err := adversary.NewGreedy(a, splitVote, 4)
				if err != nil {
					return Config{}, err
				}
				return Config{
					Alg:       a,
					Faulty:    []int{1},
					Adv:       adv,
					MaxRounds: bound + 512,
					Window:    64,
					StopEarly: true,
				}, nil
			}, nil),
		},
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Scenarios[0].Stats
	if st.Stabilised != 8 {
		t.Fatalf("stabilised = %d/8", st.Stabilised)
	}
}
