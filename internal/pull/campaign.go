package pull

import (
	"context"

	"github.com/synchcount/synchcount/internal/harness"
)

// CampaignScenario adapts a pulling-model Config to a campaign scenario
// running `trials` independent trials. The scenario pins cfg.Seed as
// its base seed; cfg.StopEarly selects Run vs RunFull semantics. The
// Config is shared across concurrent trials, so everything it
// references must be read-only during a run — true of all built-in
// adversaries and of SampledCounter, whose wiring is fixed at
// construction.
func CampaignScenario(name string, cfg Config, trials int) harness.Scenario {
	return harness.Scenario{
		Name:   name,
		Trials: trials,
		Seed:   &cfg.Seed,
		Run: func(ctx context.Context, _ int, trialSeed int64) (harness.Observation, error) {
			c := cfg
			c.Seed = trialSeed
			if c.Abort == nil {
				c.Abort = func() bool { return ctx.Err() != nil }
			}
			r, err := run(c)
			if err != nil {
				return harness.Observation{}, err
			}
			return harness.Observation{
				Stabilised:        r.Stabilised,
				StabilisationTime: r.StabilisationTime,
				RoundsRun:         r.RoundsRun,
				Violations:        r.Violations,
				BitsPerRound:      r.MaxBits,
				MaxPulls:          r.MaxPulls,
				MeanPulls:         r.MeanPulls,
			}, nil
		},
	}
}
