package sim

import (
	"context"

	"github.com/synchcount/synchcount/internal/harness"
)

// CampaignScenario adapts a broadcast-model Config to a campaign
// scenario running `trials` independent trials. The scenario pins
// cfg.Seed as its base seed, so trial seeds are drawn exactly as the
// historical RunMany did; cfg.StopEarly selects Run vs RunFull
// semantics.
//
// The Config is shared across concurrent trials, so everything it
// references must be read-only during a run: all built-in adversaries
// and algorithms qualify, but the greedy lookahead adversary does not —
// use CampaignScenarioFunc with a per-trial constructor for it.
func CampaignScenario(name string, cfg Config, trials int) harness.Scenario {
	return CampaignScenarioFunc(name, trials, func(int) (Config, error) {
		return cfg, nil
	}, &cfg.Seed)
}

// CampaignScenarioFunc builds a campaign scenario whose Config is
// constructed freshly for every trial — required when the config holds
// per-run mutable state (a greedy adversary, an OnRound trace sink).
// The returned config's Seed is overwritten with the engine-derived
// trial seed. seed optionally pins the scenario base seed; pass nil to
// derive it from the campaign seed.
func CampaignScenarioFunc(name string, trials int, build func(trial int) (Config, error), seed *int64) harness.Scenario {
	return scenario(name, trials, build, seed)
}

// PullCampaignScenario adapts a pulling-model PullConfig to a campaign
// scenario running `trials` independent trials, exactly as
// CampaignScenario does for the broadcast model. The PullConfig is
// shared across concurrent trials — safe for all built-in adversaries
// and for the internal/pull algorithms, whose wiring is fixed at
// construction.
func PullCampaignScenario(name string, cfg PullConfig, trials int) harness.Scenario {
	return scenario(name, trials, func(int) (PullConfig, error) {
		return cfg, nil
	}, &cfg.Seed)
}

// trialConfig is a run configuration of either message model, as the
// campaign adaptor drives one trial of it: the engine-derived trial
// seed and the campaign's cancellation go in (an Abort hook already set
// is kept), the trial's observation comes out.
type trialConfig interface {
	observe(seed int64, abort func() bool) (harness.Observation, error)
}

// scenario is the campaign adaptor of both message models: each trial
// builds its configuration and runs it at the trial seed, polling the
// campaign context once per simulated round.
func scenario[C trialConfig](name string, trials int, build func(trial int) (C, error), seed *int64) harness.Scenario {
	return harness.Scenario{
		Name:   name,
		Trials: trials,
		Seed:   seed,
		Run: func(ctx context.Context, trial int, trialSeed int64) (harness.Observation, error) {
			cfg, err := build(trial)
			if err != nil {
				return harness.Observation{}, err
			}
			return cfg.observe(trialSeed, func() bool { return ctx.Err() != nil })
		},
	}
}

func (cfg Config) observe(seed int64, abort func() bool) (harness.Observation, error) {
	cfg.Seed = seed
	if cfg.Abort == nil {
		cfg.Abort = abort
	}
	r, err := run(cfg)
	return harness.Observation{
		Stabilised:        r.Stabilised,
		StabilisationTime: r.StabilisationTime,
		RoundsRun:         r.RoundsRun,
		Violations:        r.Violations,
		MessagesPerRound:  r.MessagesPerRound,
		BitsPerRound:      r.BitsPerRound,
	}, err
}

func (cfg PullConfig) observe(seed int64, abort func() bool) (harness.Observation, error) {
	cfg.Seed = seed
	if cfg.Abort == nil {
		cfg.Abort = abort
	}
	r, err := runPull(cfg, false)
	return harness.Observation{
		Stabilised:        r.Stabilised,
		StabilisationTime: r.StabilisationTime,
		RoundsRun:         r.RoundsRun,
		Violations:        r.Violations,
		BitsPerRound:      r.MaxBits,
		MaxPulls:          r.MaxPulls,
		MeanPulls:         r.MeanPulls,
	}, err
}
