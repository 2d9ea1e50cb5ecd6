package harness

import (
	"encoding/json"
	"fmt"
)

// ShardSpec pins the slice of a campaign that one shard executes: the
// campaign identity (name and master seed) plus per-scenario trial
// ranges. Because every trial's seed is derived deterministically from
// the campaign seed and the trial's grid position — never from the
// worker count or the shard layout — running the K specs of a
// complete split in K separate processes (or machines) and merging
// their Results reproduces the unsharded campaign byte for byte.
//
// Specs serialise to JSON losslessly, so an orchestrator can compute a
// split once and ship each spec to a worker process.
type ShardSpec struct {
	// Campaign names the campaign this spec slices.
	Campaign string `json:"campaign"`
	// Seed is the campaign master seed the spec was computed against.
	// Executing a spec against a campaign with a different seed is
	// rejected: the trial seeds would not match the rest of the split.
	Seed int64 `json:"seed"`
	// Shard and Of locate this spec in its split: shard index Shard of
	// Of total shards, 0 <= Shard < Of.
	Shard int `json:"shard"`
	Of    int `json:"of"`
	// Slices are the trial ranges this shard owns, at most one per
	// scenario, in grid order. Scenarios the shard owns no trials of
	// are absent.
	Slices []ShardSlice `json:"slices"`
}

// ShardSlice is one scenario's contiguous trial range within a shard.
type ShardSlice struct {
	// Scenario names the scenario; Index is its position in the
	// campaign grid (which the scenario-seed derivation depends on).
	Scenario string `json:"scenario"`
	Index    int    `json:"index"`
	// Seed is the scenario's resolved base seed, recorded so a spec is
	// verifiable against the campaign it is executed on.
	Seed int64 `json:"seed"`
	// From and To bound the owned trial indices: From <= trial < To.
	From int `json:"from"`
	To   int `json:"to"`
}

// Shard computes shard `index` of a `count`-way split of the campaign:
// the flattened trial list (scenarios in grid order, trials in index
// order) divided into count near-equal contiguous ranges. Contiguity
// makes the split streaming-friendly — concatenating the K shards'
// NDJSON streams in shard order reproduces the unsharded stream.
func (c Campaign) Shard(index, count int) (ShardSpec, error) {
	if err := c.validate(); err != nil {
		return ShardSpec{}, err
	}
	if count <= 0 {
		return ShardSpec{}, fmt.Errorf("harness: shard count must be positive, got %d", count)
	}
	if index < 0 || index >= count {
		return ShardSpec{}, fmt.Errorf("harness: shard index %d out of range [0,%d)", index, count)
	}
	total := 0
	for _, s := range c.Scenarios {
		total += s.Trials
	}
	lo := index * total / count
	hi := (index + 1) * total / count
	spec := ShardSpec{Campaign: c.Name, Seed: c.Seed, Shard: index, Of: count}
	cursor := 0
	for si, meta := range c.scenarioMetas() {
		from := lo - cursor
		if from < 0 {
			from = 0
		}
		to := hi - cursor
		if to > meta.Trials {
			to = meta.Trials
		}
		if from < to {
			spec.Slices = append(spec.Slices, ShardSlice{
				Scenario: meta.Name,
				Index:    si,
				Seed:     meta.Seed,
				From:     from,
				To:       to,
			})
		}
		cursor += meta.Trials
	}
	return spec, nil
}

// ParseShardSpec decodes a ShardSpec from its JSON serialisation and
// validates its internal consistency.
func ParseShardSpec(data []byte) (ShardSpec, error) {
	var spec ShardSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return ShardSpec{}, fmt.Errorf("harness: parse shard spec: %w", err)
	}
	if err := spec.check(); err != nil {
		return ShardSpec{}, err
	}
	return spec, nil
}

// check validates the spec's internal consistency independent of any
// campaign.
func (s ShardSpec) check() error {
	if s.Of <= 0 {
		return fmt.Errorf("harness: shard spec: count must be positive, got %d", s.Of)
	}
	if s.Shard < 0 || s.Shard >= s.Of {
		return fmt.Errorf("harness: shard spec: index %d out of range [0,%d)", s.Shard, s.Of)
	}
	seen := make(map[int]bool, len(s.Slices))
	for _, sl := range s.Slices {
		if sl.Index < 0 {
			return fmt.Errorf("harness: shard spec: scenario %q has negative grid index %d", sl.Scenario, sl.Index)
		}
		if seen[sl.Index] {
			return fmt.Errorf("harness: shard spec: duplicate slice for scenario index %d", sl.Index)
		}
		seen[sl.Index] = true
		if sl.From < 0 || sl.To <= sl.From {
			return fmt.Errorf("harness: shard spec: scenario %q has empty or negative trial range [%d,%d)", sl.Scenario, sl.From, sl.To)
		}
	}
	return nil
}

// validateFor checks the spec against the campaign it is about to
// slice: identity, scenario names, base seeds and trial ranges must all
// line up, so a stale or mistargeted spec fails loudly instead of
// silently running the wrong trials.
func (s ShardSpec) validateFor(c Campaign, metas []ScenarioMeta) error {
	if err := s.check(); err != nil {
		return err
	}
	if s.Campaign != c.Name {
		return fmt.Errorf("harness: shard spec is for campaign %q, not %q", s.Campaign, c.Name)
	}
	if s.Seed != c.Seed {
		return fmt.Errorf("harness: shard spec was computed for campaign seed %d, not %d", s.Seed, c.Seed)
	}
	for _, sl := range s.Slices {
		if sl.Index >= len(metas) {
			return fmt.Errorf("harness: shard spec: scenario index %d out of range (campaign has %d scenarios)", sl.Index, len(metas))
		}
		m := metas[sl.Index]
		if sl.Scenario != m.Name {
			return fmt.Errorf("harness: shard spec: scenario %d is %q in the campaign, %q in the spec", sl.Index, m.Name, sl.Scenario)
		}
		if sl.Seed != m.Seed {
			return fmt.Errorf("harness: shard spec: scenario %q base seed mismatch: campaign derives %d, spec records %d", sl.Scenario, m.Seed, sl.Seed)
		}
		if sl.To > m.Trials {
			return fmt.Errorf("harness: shard spec: scenario %q trial range [%d,%d) exceeds %d trials", sl.Scenario, sl.From, sl.To, m.Trials)
		}
	}
	return nil
}
