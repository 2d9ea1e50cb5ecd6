// Package harness is the parallel experiment engine behind every trial
// campaign in this repository.
//
// A Campaign is a grid of Scenarios — typically one per (algorithm
// constructor × n × f × adversary) cell — each running a number of
// independent trials. The engine fans all trials of all scenarios out
// over a worker pool, derives per-trial seeds deterministically (the
// same campaign seed yields byte-identical results at any worker
// count), honours context cancellation mid-campaign, and aggregates
// per-scenario statistics including median/p95/p99 stabilisation times.
//
// The engine core streams: completed trials are re-serialised into
// deterministic order and delivered to Sinks (per-trial callbacks,
// NDJSON writers, the buffering Collector behind Run), holding at most
// a bounded reorder window in memory — million-trial campaigns run in
// memory independent of the trial count and can be tailed live. The
// trial grid also shards: a ShardSpec (JSON-serialisable) pins a slice
// of the grid to run in another process or on another machine, and
// Merge reassembles shard Results byte-identically to the unsharded
// run, because trial seeds depend only on grid position.
//
// The package is deliberately model-agnostic: a Scenario is just a
// TrialFunc returning an Observation, so both message models of the
// simulator (internal/sim) and any future workload can all ride the
// same engine. The simulator provides the campaign scenario adaptors;
// this package depends only on the standard library.
package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// Observation is what a single trial measures. Fields that do not apply
// to a given model are left zero (e.g. MaxPulls for broadcast runs).
type Observation struct {
	// Stabilised reports whether the run confirmed a correct-counting
	// streak of window length.
	Stabilised bool `json:"stabilised"`
	// StabilisationTime is the first round of the confirmed streak.
	// Only meaningful when Stabilised.
	StabilisationTime uint64 `json:"stabilisation_time"`
	// RoundsRun is the number of rounds actually simulated.
	RoundsRun uint64 `json:"rounds_run"`
	// Violations counts post-stabilisation correctness violations.
	Violations uint64 `json:"violations"`
	// MessagesPerRound is the broadcast-model network message load.
	MessagesPerRound uint64 `json:"messages_per_round"`
	// BitsPerRound is the per-round bit complexity (broadcast: network
	// total; pulling: max per-node pulled bits).
	BitsPerRound uint64 `json:"bits_per_round"`
	// MaxPulls is the pulling-model per-node message complexity.
	MaxPulls uint64 `json:"max_pulls"`
	// MeanPulls is the pulling-model mean per-node pull count.
	MeanPulls float64 `json:"mean_pulls"`
}

// TrialFunc executes one trial. It receives the trial index within its
// scenario and the engine-derived seed; long-running implementations
// should observe ctx and abort promptly when it is cancelled (the
// simulator adaptors poll ctx once per simulated round).
type TrialFunc func(ctx context.Context, trial int, seed int64) (Observation, error)

// Scenario is one cell of a campaign grid.
type Scenario struct {
	// Name identifies the scenario in results and exports. Names must be
	// unique within a campaign.
	Name string
	// Trials is the number of independent trials to run. Must be
	// positive.
	Trials int
	// Seed optionally pins the scenario's base seed. When nil the base
	// seed is derived from the campaign seed and the scenario index, so
	// distinct scenarios draw distinct trial-seed streams.
	Seed *int64
	// Run executes one trial. It must be safe for concurrent invocation:
	// anything shared across trials (algorithm instances, adversaries,
	// initial-state slices) must be read-only, and stateful components
	// such as the greedy lookahead adversary must be constructed freshly
	// inside Run.
	Run TrialFunc
	// MaxConcurrent optionally bounds how many trials of this scenario
	// run at once (0 = bounded only by Campaign.Workers). Large-n
	// pulling-model cells use it to bound peak memory: a million-node
	// trial holds O(n) state, so a campaign mixing huge and small cells
	// caps the huge ones without throttling the rest. It affects
	// scheduling only — results stay byte-identical at any setting.
	MaxConcurrent int
}

// Campaign is a grid of scenarios executed as one parallel batch.
type Campaign struct {
	// Name labels the campaign in exports.
	Name string
	// Seed is the campaign master seed. Every trial seed is derived from
	// it deterministically; rerunning the same campaign with the same
	// seed reproduces every trial exactly, at any worker count.
	Seed int64
	// Workers bounds the number of concurrent trials. Zero means
	// runtime.GOMAXPROCS(0); one reproduces the historical sequential
	// behaviour.
	Workers int
	// Scenarios is the grid.
	Scenarios []Scenario
}

// Trial is one trial's record in a campaign result.
type Trial struct {
	// Trial is the trial index within the scenario.
	Trial int `json:"trial"`
	// Seed is the derived seed the trial ran with.
	Seed int64 `json:"seed"`
	Observation
}

// ScenarioResult is one scenario's aggregated outcome.
type ScenarioResult struct {
	// Name echoes the scenario name.
	Name string `json:"name"`
	// Seed is the scenario base seed the trial seeds were drawn from.
	Seed int64 `json:"seed"`
	// Stats aggregates the trials.
	Stats Stats `json:"stats"`
	// Trials lists every trial in index order.
	Trials []Trial `json:"trials"`
}

// Result is a completed campaign. It deliberately records nothing
// about the execution environment (worker count, timings): a campaign
// result — and its JSON/CSV export — is a pure function of the campaign
// definition and seed, byte-identical at any worker count.
type Result struct {
	// Campaign echoes the campaign name.
	Campaign string `json:"campaign"`
	// Seed echoes the campaign master seed.
	Seed int64 `json:"seed"`
	// Scenarios holds per-scenario results in campaign order.
	Scenarios []ScenarioResult `json:"scenarios"`
}

// Scenario returns the named scenario result, or nil when absent.
func (r *Result) Scenario(name string) *ScenarioResult {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// scenarioSeed derives the base seed of scenario i from the campaign
// seed via SplitMix64 — a bijective mixer, so distinct scenario indices
// can never collapse onto one trial-seed stream.
func scenarioSeed(campaignSeed int64, i int) int64 {
	z := uint64(campaignSeed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1) // keep seeds non-negative like rand.Int63
}

// Run executes the campaign, fanning every trial of every scenario out
// over the worker pool and buffering everything into a Result (it is
// Stream with a Collector sink). The returned Result is fully
// deterministic in (Campaign definition, Seed): worker scheduling
// affects wall-clock time only. On error or cancellation the first
// failure is returned and the remaining trials are abandoned.
func (c Campaign) Run(ctx context.Context) (*Result, error) {
	col := NewCollector()
	if err := c.stream(ctx, nil, []Sink{col}); err != nil {
		return nil, err
	}
	return col.Result(), nil
}

// Stream executes the campaign, delivering every completed trial to the
// sinks instead of buffering it. Records are emitted in deterministic
// order (scenarios in grid order, trials in ascending index order) from
// a single goroutine, regardless of worker count; the engine holds at
// most a bounded reorder window of completed records, so campaigns with
// non-buffering sinks run in memory independent of the trial count.
func (c Campaign) Stream(ctx context.Context, sinks ...Sink) error {
	return c.stream(ctx, nil, sinks)
}

// StreamShard is Stream restricted to the campaign slice pinned by
// spec.
func (c Campaign) StreamShard(ctx context.Context, spec ShardSpec, sinks ...Sink) error {
	return c.stream(ctx, &spec, sinks)
}

// scenarioMetas resolves every scenario's base seed and full trial
// count in grid order.
func (c Campaign) scenarioMetas() []ScenarioMeta {
	metas := make([]ScenarioMeta, len(c.Scenarios))
	for si, s := range c.Scenarios {
		base := scenarioSeed(c.Seed, si)
		if s.Seed != nil {
			base = *s.Seed
		}
		metas[si] = ScenarioMeta{Name: s.Name, Seed: base, Trials: s.Trials, Owned: s.Trials}
	}
	return metas
}

// stream is the engine core shared by Run, Stream and StreamShard: a
// worker pool racing through the (possibly sharded) job list, and a
// collector goroutine re-serialising completions into
// deterministic order before fanning them out to the sinks. A
// semaphore sized reorderWindow(workers) bounds how far completion may
// run ahead of emission, which bounds the engine's memory use.
func (c Campaign) stream(ctx context.Context, shard *ShardSpec, sinks []Sink) error {
	if err := c.validate(); err != nil {
		return err
	}
	metas := c.scenarioMetas()
	owns := func(si, ti int) bool { return true }
	if shard != nil {
		if err := shard.validateFor(c, metas); err != nil {
			return err
		}
		ranges := make(map[int]ShardSlice, len(shard.Slices))
		for _, sl := range shard.Slices {
			ranges[sl.Index] = sl
		}
		for si := range metas {
			sl := ranges[si] // absent => zero range => owns nothing
			metas[si].Owned = sl.To - sl.From
		}
		owns = func(si, ti int) bool {
			sl, ok := ranges[si]
			return ok && ti >= sl.From && ti < sl.To
		}
	}

	totalOwned := 0
	for _, m := range metas {
		totalOwned += m.Owned
	}

	meta := CampaignMeta{Campaign: c.Name, Seed: c.Seed, Scenarios: metas}
	for _, s := range sinks {
		if cs, ok := s.(campaignSink); ok {
			if err := cs.Begin(meta); err != nil {
				return fmt.Errorf("harness: sink: %w", err)
			}
		}
	}

	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > totalOwned {
		workers = totalOwned
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	type job struct {
		scenario int
		trial    int
		order    int
		seed     int64
	}
	type completion struct {
		order int
		rec   TrialRecord
	}
	jobCh := make(chan job)
	completed := make(chan completion)
	slots := make(chan struct{}, reorderWindow(workers))

	// Per-scenario concurrency caps: a worker holds a scenario slot for
	// the duration of one Run. Slots are released as soon as the trial
	// returns, so a capped scenario can never deadlock the pool — it
	// only serialises its own trials.
	sems := make([]chan struct{}, len(c.Scenarios))
	for si, s := range c.Scenarios {
		if s.MaxConcurrent > 0 {
			sems[si] = make(chan struct{}, s.MaxConcurrent)
		}
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if ctx.Err() != nil {
					return
				}
				s := &c.Scenarios[j.scenario]
				if sem := sems[j.scenario]; sem != nil {
					select {
					case sem <- struct{}{}:
					case <-ctx.Done():
						return
					}
				}
				obs, err := s.Run(ctx, j.trial, j.seed)
				if sem := sems[j.scenario]; sem != nil {
					<-sem
				}
				if err != nil {
					if ctx.Err() != nil {
						fail(ctx.Err())
					} else {
						fail(fmt.Errorf("harness: scenario %q trial %d: %w", s.Name, j.trial, err))
					}
					return
				}
				rec := TrialRecord{
					Campaign:     c.Name,
					CampaignSeed: c.Seed,
					Scenario:     s.Name,
					ScenarioSeed: metas[j.scenario].Seed,
					Trial:        Trial{Trial: j.trial, Seed: j.seed, Observation: obs},
				}
				select {
				case completed <- completion{order: j.order, rec: rec}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	// Feeder: jobs are generated lazily — the seed stream is sequential
	// per scenario (draws from a math/rand source seeded with the
	// scenario base seed, matching the historical sim.RunMany
	// derivation exactly), so no per-trial state exists before a trial
	// is dispatched and campaign memory stays a function of the worker
	// count and scenario count, never of the trial count. Unowned trial
	// indices still draw from the seeder to keep every seed a pure
	// function of grid position. One reorder-window slot is acquired
	// per job, so completion can never run more than the window ahead
	// of in-order emission.
	go func() {
		defer close(jobCh)
		order := 0
		for si, s := range c.Scenarios {
			if metas[si].Owned == 0 {
				continue
			}
			seeder := rand.New(rand.NewSource(metas[si].Seed))
			for ti := 0; ti < s.Trials; ti++ {
				seed := seeder.Int63()
				if !owns(si, ti) {
					continue
				}
				j := job{scenario: si, trial: ti, order: order, seed: seed}
				order++
				select {
				case slots <- struct{}{}:
				case <-ctx.Done():
					return
				}
				select {
				case jobCh <- j:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	go func() {
		wg.Wait()
		close(completed)
	}()

	// Collector: re-serialise completions into job order and emit. A
	// failed trial never delivers its order index, so emission stops at
	// the gap naturally; pending records behind a failure are dropped.
	pending := make(map[int]TrialRecord, cap(slots))
	next := 0
	dead := false
	for cm := range completed {
		pending[cm.order] = cm.rec
		for !dead {
			rec, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			for _, s := range sinks {
				if err := s.Emit(rec); err != nil {
					fail(fmt.Errorf("harness: sink: %w", err))
					dead = true
					break
				}
			}
			next++
			<-slots
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, s := range sinks {
		if cs, ok := s.(campaignSink); ok {
			if err := cs.End(); err != nil {
				return fmt.Errorf("harness: sink: %w", err)
			}
		}
	}
	return nil
}

// reorderWindow bounds how many completed-but-unemitted trial records
// the engine holds: enough slack that workers are never starved by
// one slow trial, small enough that streaming memory stays a function
// of the worker count, never of the trial count.
func reorderWindow(workers int) int {
	w := 4 * workers
	if w < 16 {
		w = 16
	}
	return w
}

func (c Campaign) validate() error {
	if len(c.Scenarios) == 0 {
		return errors.New("harness: campaign has no scenarios")
	}
	names := make(map[string]bool, len(c.Scenarios))
	for i, s := range c.Scenarios {
		if s.Name == "" {
			return fmt.Errorf("harness: scenario %d has no name", i)
		}
		if names[s.Name] {
			return fmt.Errorf("harness: duplicate scenario name %q", s.Name)
		}
		names[s.Name] = true
		if s.Trials <= 0 {
			return fmt.Errorf("harness: scenario %q: trials must be positive", s.Name)
		}
		if s.Run == nil {
			return fmt.Errorf("harness: scenario %q has no trial function", s.Name)
		}
		if s.MaxConcurrent < 0 {
			return fmt.Errorf("harness: scenario %q: MaxConcurrent must not be negative", s.Name)
		}
	}
	return nil
}
