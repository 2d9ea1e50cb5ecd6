package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// TrialRecord is the flat, self-describing form of one completed trial,
// as delivered to sinks and written to NDJSON streams. Unlike a Trial
// inside a Result it carries its full provenance — campaign, campaign
// seed, scenario and scenario base seed — so records from different
// shards, files or machines can be distinguished and reassembled.
type TrialRecord struct {
	// Campaign is the campaign name.
	Campaign string `json:"campaign"`
	// CampaignSeed is the campaign master seed.
	CampaignSeed int64 `json:"campaign_seed"`
	// Scenario is the scenario name.
	Scenario string `json:"scenario"`
	// ScenarioSeed is the resolved scenario base seed.
	ScenarioSeed int64 `json:"scenario_seed"`
	Trial
}

// Sink consumes per-trial records as a campaign streams. The engine
// serialises all Emit calls onto a single goroutine and delivers
// records in deterministic order — scenarios in campaign order, trials
// in ascending index order — regardless of worker count, so a streamed
// export is byte-identical to the corresponding buffered one. A sink
// error aborts the campaign.
type Sink interface {
	Emit(rec TrialRecord) error
}

// SinkFunc adapts a per-trial callback to a Sink.
type SinkFunc func(rec TrialRecord) error

// Emit calls f.
func (f SinkFunc) Emit(rec TrialRecord) error { return f(rec) }

// campaignSink is an optional Sink extension for sinks that want the
// campaign structure before the first record and a completion signal
// after the last. The engine calls Begin once before any Emit and End
// once after all records have been emitted (End is not called when the
// campaign fails).
type campaignSink interface {
	Sink
	Begin(meta CampaignMeta) error
	End() error
}

// CampaignMeta describes the campaign a stream of records belongs to.
type CampaignMeta struct {
	// Campaign is the campaign name; Seed its master seed.
	Campaign string
	Seed     int64
	// Shard is non-nil when only a shard of the campaign is running.
	Shard *ShardSpec
	// Scenarios lists every scenario of the campaign in grid order,
	// including scenarios the current shard owns no trials of.
	Scenarios []ScenarioMeta
}

// ScenarioMeta is one scenario's static description.
type ScenarioMeta struct {
	// Name is the scenario name; Seed its resolved base seed.
	Name string
	Seed int64
	// Trials is the scenario's full trial count; Owned is how many of
	// those trials the current run will execute and emit (equal to
	// Trials unless the run is sharded).
	Trials int
	Owned  int
}

// NDJSONSink returns a sink streaming each record as one line of
// newline-delimited JSON. Because the engine emits records in
// deterministic order, the stream is byte-identical to
// (*Result).WriteNDJSON of the equivalent buffered run, and the
// concatenation of the K streams of a K-way contiguous shard split
// (in shard order) is byte-identical to the unsharded stream.
//
// The sink holds no per-trial state: an NDJSON campaign's memory use is
// bounded by the engine's reorder window, not by the trial count. The
// caller owns w (buffering, closing).
func NDJSONSink(w io.Writer) Sink {
	return &ndjsonSink{enc: json.NewEncoder(w)}
}

type ndjsonSink struct {
	enc *json.Encoder
}

func (s *ndjsonSink) Emit(rec TrialRecord) error { return s.enc.Encode(rec) }

// Collector is the in-memory aggregating sink behind Campaign.Run: it
// buffers every record into a Result and computes per-scenario
// statistics on demand. It is the right sink when the whole result is
// needed at once (tables, merges, JSON/CSV export); for constant-memory
// campaigns use NDJSONSink or a SinkFunc instead.
type Collector struct {
	res   *Result
	index map[string]int
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Begin primes the collector with the campaign structure so the result
// lists every scenario in grid order, including scenarios the current
// shard owns no trials of.
func (c *Collector) Begin(meta CampaignMeta) error {
	c.res = &Result{
		Campaign:  meta.Campaign,
		Seed:      meta.Seed,
		Scenarios: make([]ScenarioResult, len(meta.Scenarios)),
	}
	c.index = make(map[string]int, len(meta.Scenarios))
	for i, m := range meta.Scenarios {
		c.res.Scenarios[i] = ScenarioResult{
			Name:   m.Name,
			Seed:   m.Seed,
			Trials: make([]Trial, 0, m.Owned),
		}
		c.index[m.Name] = i
	}
	return nil
}

// Emit appends one record. Records for scenarios not announced via
// Begin (standalone use) are added in first-seen order. Provenance is
// checked with Merge's strictness: the first record (or Begin) pins the
// campaign name and master seed, and every later record must agree —
// folding a foreign campaign's trials into this result would silently
// corrupt its statistics.
func (c *Collector) Emit(rec TrialRecord) error {
	if c.res == nil {
		c.res = &Result{Campaign: rec.Campaign, Seed: rec.CampaignSeed}
		c.index = make(map[string]int)
	} else if rec.Campaign != c.res.Campaign || rec.CampaignSeed != c.res.Seed {
		return fmt.Errorf("harness: collector: record belongs to campaign %q (seed %d), collecting %q (seed %d)",
			rec.Campaign, rec.CampaignSeed, c.res.Campaign, c.res.Seed)
	}
	si, ok := c.index[rec.Scenario]
	if !ok {
		si = len(c.res.Scenarios)
		c.res.Scenarios = append(c.res.Scenarios, ScenarioResult{
			Name: rec.Scenario,
			Seed: rec.ScenarioSeed,
		})
		c.index[rec.Scenario] = si
	} else if c.res.Scenarios[si].Seed != rec.ScenarioSeed {
		return fmt.Errorf("harness: collector: scenario %q base seed mismatch: %d vs %d",
			rec.Scenario, c.res.Scenarios[si].Seed, rec.ScenarioSeed)
	}
	c.res.Scenarios[si].Trials = append(c.res.Scenarios[si].Trials, rec.Trial)
	return nil
}

// End implements campaignSink; aggregation happens in Result.
func (c *Collector) End() error { return nil }

// Result aggregates statistics over the collected trials and returns
// the result. It returns nil when nothing was collected and Begin was
// never called.
func (c *Collector) Result() *Result {
	if c.res == nil {
		return nil
	}
	for si := range c.res.Scenarios {
		c.res.Scenarios[si].Stats = Aggregate(c.res.Scenarios[si].Trials)
	}
	return c.res
}
