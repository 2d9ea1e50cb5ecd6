package harness

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// WriteJSON renders the campaign result as indented JSON. The encoding
// is fully deterministic (struct-ordered fields, trials in index
// order), so results from different worker counts compare byte for
// byte.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteJSONFile writes the JSON export to path, creating or atomically replacing
// the file.
func (r *Result) WriteJSONFile(path string) error {
	return AtomicWriteFile(path, r.WriteJSON)
}

// WriteCSVFile writes the CSV export to path, creating or atomically replacing
// the file.
func (r *Result) WriteCSVFile(path string) error {
	return AtomicWriteFile(path, r.WriteCSV)
}

// WriteNDJSON renders one newline-delimited JSON record per trial, in
// deterministic order — the same bytes a live NDJSONSink streams while
// the campaign runs, so buffered and streamed exports diff clean.
func (r *Result) WriteNDJSON(w io.Writer) error {
	return r.Replay(NDJSONSink(w))
}

// WriteNDJSONFile writes the NDJSON export to path, creating or
// atomically replacing the file.
func (r *Result) WriteNDJSONFile(path string) error {
	return AtomicWriteFile(path, r.WriteNDJSON)
}

// Replay emits the result's trials to the sinks in deterministic order
// — the bridge from a buffered (or merged) Result back into the
// streaming world. Sinks implementing campaignSink receive Begin/End
// around the records; unlike a live engine stream, a Result does not
// record the original grid's trial counts, so each ScenarioMeta
// reports Trials == Owned == the records actually present.
func (r *Result) Replay(sinks ...Sink) error {
	meta := CampaignMeta{Campaign: r.Campaign, Seed: r.Seed}
	for _, sc := range r.Scenarios {
		meta.Scenarios = append(meta.Scenarios, ScenarioMeta{
			Name:   sc.Name,
			Seed:   sc.Seed,
			Trials: len(sc.Trials),
			Owned:  len(sc.Trials),
		})
	}
	for _, s := range sinks {
		if cs, ok := s.(campaignSink); ok {
			if err := cs.Begin(meta); err != nil {
				return err
			}
		}
	}
	for _, sc := range r.Scenarios {
		for _, tr := range sc.Trials {
			rec := TrialRecord{
				Campaign:     r.Campaign,
				CampaignSeed: r.Seed,
				Scenario:     sc.Name,
				ScenarioSeed: sc.Seed,
				Trial:        tr,
			}
			for _, s := range sinks {
				if err := s.Emit(rec); err != nil {
					return err
				}
			}
		}
	}
	for _, s := range sinks {
		if cs, ok := s.(campaignSink); ok {
			if err := cs.End(); err != nil {
				return err
			}
		}
	}
	return nil
}

// readJSON decodes a campaign Result from its WriteJSON serialisation.
// Decoding and re-encoding is lossless, so shard results can round-trip
// through files on their way to Merge. JSON that decodes but is not a
// campaign result (a ShardSpec, an unrelated object) is rejected
// rather than treated as an empty campaign — merging the wrong files
// must fail loudly, not silently discard the shards' work.
func readJSON(rd io.Reader) (*Result, error) {
	dec := json.NewDecoder(rd)
	var res Result
	if err := dec.Decode(&res); err != nil {
		return nil, err
	}
	if dec.More() {
		// A concatenation of result files decodes as its first value;
		// accepting it would silently drop every other shard's trials.
		return nil, fmt.Errorf("trailing data after the campaign result (concatenated files? pass them as separate merge inputs)")
	}
	if len(res.Scenarios) == 0 {
		return nil, fmt.Errorf("not a campaign result (no scenarios; campaign %q)", res.Campaign)
	}
	return &res, nil
}

// ReadJSONFile reads a campaign Result from a JSON file written by
// WriteJSONFile.
func ReadJSONFile(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := readJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// AtomicWriteFile writes the output of write to path via a temp file in
// the same directory and an atomic rename, so a failure at any point
// leaves any existing file at path untouched. The temp file is removed
// on failure. Every export is written this way: the bytes are renamed
// into place only after a successful write and close, so a failed or
// interrupted export can never destroy the previous artifact at path —
// os.Create would have truncated it before the first byte was written.
func AtomicWriteFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	// CreateTemp opens 0600; exports are ordinary artifacts, so restore
	// the permissions os.Create would have given them.
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// CSVHeader is the flat per-trial export schema; CSVRow renders one
// trial in it.
var CSVHeader = []string{
	"campaign", "scenario", "trial", "seed",
	"stabilised", "stabilisation_time", "rounds_run", "violations",
	"messages_per_round", "bits_per_round", "max_pulls", "mean_pulls",
}

// CSVRow renders one trial of a campaign's scenario as a CSVHeader row.
func CSVRow(campaign, scenario string, tr Trial) []string {
	return []string{
		campaign,
		scenario,
		strconv.Itoa(tr.Trial),
		strconv.FormatInt(tr.Seed, 10),
		strconv.FormatBool(tr.Stabilised),
		strconv.FormatUint(tr.StabilisationTime, 10),
		strconv.FormatUint(tr.RoundsRun, 10),
		strconv.FormatUint(tr.Violations, 10),
		strconv.FormatUint(tr.MessagesPerRound, 10),
		strconv.FormatUint(tr.BitsPerRound, 10),
		strconv.FormatUint(tr.MaxPulls, 10),
		strconv.FormatFloat(tr.MeanPulls, 'g', -1, 64),
	}
}

// WriteCSV renders one row per trial, flat enough for spreadsheet and
// dataframe ingestion. Like WriteJSON it is deterministic in the
// campaign definition and seed.
func (r *Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader); err != nil {
		return err
	}
	for _, sc := range r.Scenarios {
		for _, tr := range sc.Trials {
			if err := cw.Write(CSVRow(r.Campaign, sc.Name, tr)); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
