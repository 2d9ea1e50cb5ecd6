// Package resultdb is the embedded campaign results database: an
// append-only, segmented trial store that ingests the campaign
// commands' NDJSON shard streams and buffered JSON results — from any
// number of processes or machines — and serves incremental aggregation
// over everything ever recorded, so questions about stabilisation
// behaviour ("p99 for ecount vs figure2 at f=7 across all recorded
// campaigns") are answered from history instead of re-running the grid.
//
// Layout: a store is a directory holding MANIFEST.json plus one
// immutable segment file per ingest batch. A segment holds the batch's
// new trial records regrouped by (campaign, campaign seed, scenario),
// trials in ascending index order, together with per-group sorted
// stabilisation-time runs recomputed at load. Ingestion deduplicates
// by (campaign, campaign seed, scenario, trial) — re-ingesting a shard
// is a no-op, while a record that *conflicts* with the stored one under
// the same key fails loudly. A stored record is found by binary search
// in the sorted trials of its scenario's groups, so an ingest never
// indexes every stored record. Every file is written to a temp file
// and renamed into place, so an ingest whose process is killed leaves
// the store as it was. Nothing is fsynced, though: after a power cut
// or OS crash the rename can be on disk while the data is not, leaving
// a truncated segment or manifest (ROADMAP, persistent-state item).
//
// Queries filter by campaign identity, scenario name, or the axes
// parsed from scenario names (algorithm, n, f, c, faults, adversary —
// the compare suite's "alg/f=…/c=…/faults=…/adversary" convention),
// and aggregate each group's trials exactly: statistics are folded in
// canonical record order, reproducing harness.Merge byte for byte,
// while the quantiles come from merging the per-segment sorted runs —
// segments parse once into an in-memory cache, so repeated queries
// (and queries after further ingests) never rescan cold segments.
package resultdb

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/synchcount/synchcount/internal/harness"
)

const (
	// storeSchema versions MANIFEST.json; segmentSchema versions the
	// segment files. Files from an incompatible revision are rejected
	// loudly instead of being half-understood.
	storeSchema   = "synchcount-resultdb/v1"
	segmentSchema = "synchcount-resultdb-segment/v1"

	manifestFile = "MANIFEST.json"
)

// manifest is the store's root metadata: the segment list, in ingest
// order. It is the only mutable file in a store.
type manifest struct {
	Schema      string        `json:"schema"`
	NextSegment int           `json:"next_segment"`
	Segments    []segmentMeta `json:"segments"`
}

// segmentMeta is one segment's manifest entry.
type segmentMeta struct {
	ID     int    `json:"id"`
	File   string `json:"file"`
	Groups int    `json:"groups"`
	Trials int    `json:"trials"`
}

// segment is one immutable ingest batch.
type segment struct {
	Schema string     `json:"schema"`
	ID     int        `json:"segment"`
	Groups []segGroup `json:"groups"`
}

// segGroup holds one (campaign, campaign seed, scenario)'s records
// within a segment, trials in ascending index order.
type segGroup struct {
	Campaign     string          `json:"campaign"`
	CampaignSeed int64           `json:"campaign_seed"`
	Scenario     string          `json:"scenario"`
	ScenarioSeed int64           `json:"scenario_seed"`
	Trials       []harness.Trial `json:"trials"`

	// sortedTimes is the group's sorted run: the stabilisation times of
	// its stabilised trials, ascending. Computed once when the segment
	// is loaded (or built); quantile queries merge these runs instead
	// of re-sorting pooled times.
	sortedTimes []float64
}

// groupKey identifies one scenario of one campaign across segments.
type groupKey struct {
	Campaign     string
	CampaignSeed int64
	Scenario     string
}

// Store is an open results database. It is safe for concurrent use;
// loaded segments are cached for the lifetime of the Store, so only
// the first query (and each ingest of new data) touches disk.
type Store struct {
	mu   sync.Mutex
	dir  string
	man  manifest
	segs map[int]*segment

	segmentLoads int
}

// Open opens the store at dir, creating the directory and an empty
// manifest on first use.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, segs: make(map[int]*segment)}
	path := filepath.Join(dir, manifestFile)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		s.man = manifest{Schema: storeSchema, NextSegment: 1}
		return s, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &s.man); err != nil {
		return nil, fmt.Errorf("resultdb: %s: %w", path, err)
	}
	if s.man.Schema != storeSchema {
		return nil, fmt.Errorf("resultdb: %s: schema %q, want %q", path, s.man.Schema, storeSchema)
	}
	// Ingest numbers segments 1, 2, ... and names each file after its
	// id; an entry that does not fit would read a file outside the
	// store, or be overwritten by the next ingest.
	prev := 0
	for _, meta := range s.man.Segments {
		if meta.ID <= prev || meta.ID >= s.man.NextSegment || meta.File != segmentFileName(meta.ID) {
			return nil, fmt.Errorf("resultdb: %s: segment entry %d (%q) out of sequence — corrupt manifest", path, meta.ID, meta.File)
		}
		prev = meta.ID
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Segments returns the number of segments in the store.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.man.Segments)
}

// SegmentLoads reports how many segment files have been parsed from
// disk over the Store's lifetime. Loaded segments are cached, so the
// counter is the store's cold-read odometer: a repeated query must not
// move it — the regression tests pin exactly that.
func (s *Store) SegmentLoads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segmentLoads
}

// segmentFileName names segment id's file.
func segmentFileName(id int) string { return fmt.Sprintf("seg-%06d.json", id) }

// loadAll ensures every manifest segment is in the cache. Callers hold
// s.mu.
func (s *Store) loadAll() error {
	for _, meta := range s.man.Segments {
		if _, ok := s.segs[meta.ID]; ok {
			continue
		}
		seg, err := s.readSegment(meta)
		if err != nil {
			return err
		}
		s.segs[meta.ID] = seg
	}
	return nil
}

// readSegment parses one segment file and builds its sorted runs.
// Callers hold s.mu.
func (s *Store) readSegment(meta segmentMeta) (*segment, error) {
	path := filepath.Join(s.dir, meta.File)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var seg segment
	if err := json.Unmarshal(data, &seg); err != nil {
		return nil, fmt.Errorf("resultdb: %s: %w", path, err)
	}
	if seg.Schema != segmentSchema {
		return nil, fmt.Errorf("resultdb: %s: schema %q, want %q", path, seg.Schema, segmentSchema)
	}
	if seg.ID != meta.ID {
		return nil, fmt.Errorf("resultdb: %s: holds segment %d, manifest expects %d", path, seg.ID, meta.ID)
	}
	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		for i := 1; i < len(g.Trials); i++ {
			if g.Trials[i].Trial <= g.Trials[i-1].Trial {
				return nil, fmt.Errorf("resultdb: %s: scenario %q trials out of order — corrupt segment", path, g.Scenario)
			}
		}
		g.sortedTimes = sortedRun(g.Trials)
	}
	s.segmentLoads++
	return &seg, nil
}

// findTrial looks trial up in groups, newest first, by binary search
// over each group's ascending trials.
func findTrial(groups []*segGroup, trial int) (harness.Trial, bool) {
	for i := len(groups) - 1; i >= 0; i-- {
		ts := groups[i].Trials
		if len(ts) == 0 || trial < ts[0].Trial || trial > ts[len(ts)-1].Trial {
			continue
		}
		if j, ok := slices.BinarySearchFunc(ts, trial, func(tr harness.Trial, t int) int { return cmp.Compare(tr.Trial, t) }); ok {
			return ts[j], true
		}
	}
	return harness.Trial{}, false
}

// sortedRun extracts the ascending stabilisation times of a trial
// slice's stabilised trials.
func sortedRun(trials []harness.Trial) []float64 {
	var times []float64
	for _, tr := range trials {
		if tr.Stabilised {
			times = append(times, float64(tr.StabilisationTime))
		}
	}
	slices.Sort(times)
	return times
}

// IngestStats reports one ingest batch's outcome.
type IngestStats struct {
	// Segment is the id of the segment written, 0 when every record was
	// already stored.
	Segment int
	// Records is how many trial records the input held; Added were new,
	// Duplicates were already stored (byte-identically) and skipped.
	Records    int
	Added      int
	Duplicates int
}

// IngestFile ingests one results file: a .ndjson trial-record stream
// (shard or full) or a buffered .json campaign result — the two
// formats every campaign command exports.
func (s *Store) IngestFile(path string) (IngestStats, error) {
	var (
		res *harness.Result
		err error
	)
	if strings.HasSuffix(path, ".ndjson") {
		res, err = harness.ReadNDJSONFile(path)
	} else {
		res, err = harness.ReadJSONFile(path)
	}
	if err != nil {
		return IngestStats{}, err
	}
	return s.IngestResult(res)
}

// IngestResult ingests every trial record of a campaign result.
// Records already stored are skipped (re-ingesting a shard is a
// no-op); a record whose key is stored with *different* content is a
// provenance conflict and fails the batch loudly — two campaigns that
// disagree on the same (campaign, seed, scenario, trial) cannot both
// be right, and folding either silently would corrupt every later
// aggregate. Nothing is written unless the whole batch validates.
func (s *Store) IngestResult(res *harness.Result) (IngestStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadAll(); err != nil {
		return IngestStats{}, err
	}

	// Index the stored groups, not their records: each group's trials
	// are strictly ascending (readSegment checks it), so a stored record
	// is a binary search away. Groups are kept in manifest order and
	// searched newest first.
	stored := make(map[groupKey][]*segGroup)
	for _, meta := range s.man.Segments {
		seg := s.segs[meta.ID]
		for gi := range seg.Groups {
			g := &seg.Groups[gi]
			gk := groupKey{g.Campaign, g.CampaignSeed, g.Scenario}
			stored[gk] = append(stored[gk], g)
		}
	}

	// The batch's own records are the only ones indexed by trial: per
	// new group, the position of each added trial in its Trials.
	type batchGroup struct {
		gi    int
		added map[int]int
	}
	seg := &segment{Schema: segmentSchema, ID: s.man.NextSegment}
	batch := make(map[groupKey]*batchGroup)
	var stats IngestStats
	for _, sc := range res.Scenarios {
		gk := groupKey{res.Campaign, res.Seed, sc.Name}
		prior, bg := stored[gk], batch[gk]
		seed, known := int64(0), true
		switch {
		case bg != nil:
			seed = seg.Groups[bg.gi].ScenarioSeed
		case len(prior) > 0:
			seed = prior[len(prior)-1].ScenarioSeed
		default:
			known = false
		}
		if known && seed != sc.Seed {
			return IngestStats{}, fmt.Errorf("resultdb: scenario %q of campaign %q (seed %d): base seed %d conflicts with stored %d",
				sc.Name, res.Campaign, res.Seed, sc.Seed, seed)
		}
		for j, tr := range sc.Trials {
			stats.Records++
			prev, ok := findTrial(prior, tr.Trial)
			if !ok && bg != nil {
				var i int
				if i, ok = bg.added[tr.Trial]; ok {
					prev = seg.Groups[bg.gi].Trials[i]
				}
			}
			if ok {
				if prev != tr {
					return IngestStats{}, fmt.Errorf("resultdb: %s/%s trial %d: record conflicts with the one already stored — same provenance, different content",
						res.Campaign, sc.Name, tr.Trial)
				}
				stats.Duplicates++
				continue
			}
			if bg == nil {
				bg = &batchGroup{gi: len(seg.Groups), added: make(map[int]int)}
				seg.Groups = append(seg.Groups, segGroup{
					Campaign:     res.Campaign,
					CampaignSeed: res.Seed,
					Scenario:     sc.Name,
					ScenarioSeed: sc.Seed,
					Trials:       make([]harness.Trial, 0, len(sc.Trials)-j),
				})
				batch[gk] = bg
			}
			g := &seg.Groups[bg.gi]
			bg.added[tr.Trial] = len(g.Trials)
			g.Trials = append(g.Trials, tr)
			stats.Added++
		}
	}
	if stats.Added == 0 {
		return stats, nil
	}

	for gi := range seg.Groups {
		g := &seg.Groups[gi]
		slices.SortStableFunc(g.Trials, func(a, b harness.Trial) int { return cmp.Compare(a.Trial, b.Trial) })
		g.sortedTimes = sortedRun(g.Trials)
	}

	// Segment first, manifest second: a crash in between leaves an
	// orphan segment file the manifest never references — harmless —
	// while the reverse order would reference a missing file.
	meta := segmentMeta{ID: seg.ID, File: segmentFileName(seg.ID), Groups: len(seg.Groups), Trials: stats.Added}
	// An encoded trial takes about 330 bytes; sizing the buffer for 400
	// spares it from growing.
	data, err := appendSegment(make([]byte, 0, 512+400*stats.Added), seg)
	if err != nil {
		return IngestStats{}, err
	}
	if err := harness.AtomicWriteFile(filepath.Join(s.dir, meta.File), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return IngestStats{}, err
	}
	man := s.man
	man.NextSegment++
	man.Segments = append(append([]segmentMeta(nil), man.Segments...), meta)
	if err := writeJSONAtomic(filepath.Join(s.dir, manifestFile), man); err != nil {
		return IngestStats{}, err
	}
	s.man = man
	s.segs[seg.ID] = seg
	stats.Segment = seg.ID
	return stats, nil
}

// writeJSONAtomic writes v as indented JSON via a temp file and rename.
func writeJSONAtomic(path string, v any) error {
	return harness.AtomicWriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// CampaignInfo summarises one recorded campaign.
type CampaignInfo struct {
	Campaign  string
	Seed      int64
	Scenarios int
	Trials    int
}

// Campaigns lists every recorded (campaign, seed) with its scenario
// and trial counts, sorted by name then seed.
func (s *Store) Campaigns() ([]CampaignInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.loadAll(); err != nil {
		return nil, err
	}
	type ck struct {
		name string
		seed int64
	}
	scen := make(map[ck]map[string]int)
	for _, meta := range s.man.Segments {
		for _, g := range s.segs[meta.ID].Groups {
			k := ck{g.Campaign, g.CampaignSeed}
			if scen[k] == nil {
				scen[k] = make(map[string]int)
			}
			scen[k][g.Scenario] += len(g.Trials)
		}
	}
	infos := make([]CampaignInfo, 0, len(scen))
	for k, m := range scen {
		info := CampaignInfo{Campaign: k.name, Seed: k.seed, Scenarios: len(m)}
		for _, n := range m {
			info.Trials += n
		}
		infos = append(infos, info)
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Campaign != infos[j].Campaign {
			return infos[i].Campaign < infos[j].Campaign
		}
		return infos[i].Seed < infos[j].Seed
	})
	return infos, nil
}
