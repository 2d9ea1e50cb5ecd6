package harness

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"unicode/utf8"
)

// maxNDJSONLine bounds one record line. A TrialRecord serialises to a
// few hundred bytes; a megabyte-long line is not a record stream.
const maxNDJSONLine = 1 << 20

// ReadNDJSON decodes a stream of TrialRecord lines — the format
// NDJSONSink and (*Result).WriteNDJSON emit — back into a campaign
// Result, closing the loop the streaming exports opened: shard NDJSON
// files can now be reassembled exactly like shard JSON results.
//
// The reader is provenance-checked like Merge: every record must carry
// the campaign name and master seed of the first record (a
// concatenation of streams from different campaigns is rejected, not
// silently folded together), records of one scenario must agree on the
// scenario base seed, and a trial index appearing twice is an error.
// Malformed lines — broken JSON, JSON that is not a trial record (a
// shard spec, a buffered Result, an unrelated object) — fail loudly
// with their line number.
//
// A line in the exact form NDJSONSink writes — keys in field order, no
// whitespace, no string escapes — is decoded by a hand-written parser;
// any other line goes through encoding/json, so both paths accept the
// same records and every error reads the same.
//
// Trials are re-sorted into ascending index order per scenario and the
// statistics recomputed from the records, so reading the concatenated
// NDJSON streams of a complete contiguous shard split (in shard order)
// reproduces the unsharded Result byte for byte, exactly like Merge
// over the shard JSON results. Concatenating out of order reassembles
// the same per-scenario trials and statistics; only the scenario block
// order follows first appearance in the stream (a buffered shard JSON
// carries the full grid in its scenario list, which an NDJSON stream
// deliberately does not).
func ReadNDJSON(rd io.Reader) (*Result, error) { return readNDJSON(rd, true) }

// readNDJSON is ReadNDJSON with the canonical fast path switchable, so
// tests can hold it against the encoding/json-only reader.
func readNDJSON(rd io.Reader, canonical bool) (*Result, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), maxNDJSONLine)

	var (
		res   *Result
		index map[string]int
		line  int
		prev  TrialRecord // the last record, whose strings the next one reuses
	)
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue // a trailing or separating newline is not a record
		}
		var (
			rec TrialRecord
			ok  bool
		)
		if canonical {
			rec, ok = decodeCanonicalRecord(raw, prev.Campaign, prev.Scenario)
		}
		if !ok {
			var err error
			if rec, err = decodeRecordJSON(raw, line); err != nil {
				return nil, err
			}
		}
		prev = rec
		if rec.Campaign == "" || rec.Scenario == "" {
			return nil, fmt.Errorf("harness: ndjson line %d: not a trial record (missing campaign or scenario)", line)
		}
		if res == nil {
			res = &Result{Campaign: rec.Campaign, Seed: rec.CampaignSeed}
			index = make(map[string]int)
		} else if rec.Campaign != res.Campaign || rec.CampaignSeed != res.Seed {
			return nil, fmt.Errorf("harness: ndjson line %d: record belongs to campaign %q (seed %d), stream started with %q (seed %d) — mixed-campaign streams cannot be reassembled",
				line, rec.Campaign, rec.CampaignSeed, res.Campaign, res.Seed)
		}
		si, ok := index[rec.Scenario]
		if !ok {
			si = len(res.Scenarios)
			res.Scenarios = append(res.Scenarios, ScenarioResult{Name: rec.Scenario, Seed: rec.ScenarioSeed})
			index[rec.Scenario] = si
		} else if res.Scenarios[si].Seed != rec.ScenarioSeed {
			return nil, fmt.Errorf("harness: ndjson line %d: scenario %q base seed mismatch: %d vs %d",
				line, rec.Scenario, res.Scenarios[si].Seed, rec.ScenarioSeed)
		}
		res.Scenarios[si].Trials = append(res.Scenarios[si].Trials, rec.Trial)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("harness: ndjson line %d: line exceeds %d bytes — not a trial record stream", line+1, maxNDJSONLine)
		}
		return nil, err
	}
	if res == nil {
		return nil, errors.New("harness: ndjson stream holds no trial records")
	}
	for si := range res.Scenarios {
		s := &res.Scenarios[si]
		slices.SortStableFunc(s.Trials, func(a, b Trial) int { return cmp.Compare(a.Trial, b.Trial) })
		for i := 1; i < len(s.Trials); i++ {
			if s.Trials[i].Trial == s.Trials[i-1].Trial {
				return nil, fmt.Errorf("harness: ndjson: scenario %q: trial %d appears more than once in the stream", s.Name, s.Trials[i].Trial)
			}
		}
		s.Stats = Aggregate(s.Trials)
	}
	return res, nil
}

// ReadNDJSONFile reads a campaign Result from an NDJSON trial-record
// file written by WriteNDJSONFile or a live NDJSONSink.
func ReadNDJSONFile(path string) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := ReadNDJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// decodeRecordJSON decodes ndjson line number line with encoding/json,
// rejecting unknown fields and trailing data.
func decodeRecordJSON(raw []byte, line int) (TrialRecord, error) {
	var rec TrialRecord
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return TrialRecord{}, fmt.Errorf("harness: ndjson line %d: not a trial record: %w", line, err)
	}
	if dec.More() {
		return TrialRecord{}, fmt.Errorf("harness: ndjson line %d: trailing data after the trial record", line)
	}
	return rec, nil
}

// decodeCanonicalRecord decodes line when it is exactly what
// json.Encoder writes for a TrialRecord: keys in field order, no
// whitespace, strings without escapes or control bytes and in valid
// UTF-8, integers in JSON grammar within their field's range. For such
// a line encoding/json yields the same record. Any other line reports
// false with a zero record, and the caller decodes it with
// encoding/json. A string equal to campaign or scenario reuses that
// string instead of allocating.
func decodeCanonicalRecord(line []byte, campaign, scenario string) (TrialRecord, bool) {
	p := canonParser{rest: line, ok: true}
	var rec TrialRecord
	p.lit(`{"campaign":`)
	rec.Campaign = p.str(campaign)
	p.lit(`,"campaign_seed":`)
	rec.CampaignSeed = p.int(64)
	p.lit(`,"scenario":`)
	rec.Scenario = p.str(scenario)
	p.lit(`,"scenario_seed":`)
	rec.ScenarioSeed = p.int(64)
	p.lit(`,"trial":`)
	rec.Trial.Trial = int(p.int(strconv.IntSize))
	p.lit(`,"seed":`)
	rec.Seed = p.int(64)
	p.lit(`,"stabilised":`)
	rec.Stabilised = p.bool()
	p.lit(`,"stabilisation_time":`)
	rec.StabilisationTime = p.uint()
	p.lit(`,"rounds_run":`)
	rec.RoundsRun = p.uint()
	p.lit(`,"violations":`)
	rec.Violations = p.uint()
	p.lit(`,"messages_per_round":`)
	rec.MessagesPerRound = p.uint()
	p.lit(`,"bits_per_round":`)
	rec.BitsPerRound = p.uint()
	p.lit(`,"max_pulls":`)
	rec.MaxPulls = p.uint()
	p.lit(`,"mean_pulls":`)
	rec.MeanPulls = p.float()
	p.lit(`}`)
	if !p.ok || len(p.rest) != 0 {
		return TrialRecord{}, false
	}
	return rec, true
}

// canonParser consumes a canonical TrialRecord line left to right.
// After the first mismatch ok is false and every method is a no-op
// returning a zero value.
type canonParser struct {
	rest []byte
	ok   bool
}

// lit consumes the literal s.
func (p *canonParser) lit(s string) {
	if p.ok && len(p.rest) >= len(s) && string(p.rest[:len(s)]) == s {
		p.rest = p.rest[len(s):]
		return
	}
	p.ok = false
}

// str consumes a quoted string with no escapes or control bytes,
// returning reuse when the contents equal it.
func (p *canonParser) str(reuse string) string {
	if !p.ok || len(p.rest) == 0 || p.rest[0] != '"' {
		p.ok = false
		return ""
	}
	for i := 1; i < len(p.rest); i++ {
		switch c := p.rest[i]; {
		case c == '"':
			s := p.rest[1:i]
			if !utf8.Valid(s) {
				p.ok = false
				return ""
			}
			p.rest = p.rest[i+1:]
			if string(s) == reuse {
				return reuse
			}
			return string(s)
		case c == '\\' || c < ' ':
			p.ok = false
			return ""
		}
	}
	p.ok = false
	return ""
}

// digits consumes a JSON-grammar integer: an optional minus sign when
// signed, then 0 or a digit run without a leading zero.
func (p *canonParser) digits(signed bool) []byte {
	if !p.ok {
		return nil
	}
	tok := p.rest
	if signed && len(p.rest) > 0 && p.rest[0] == '-' {
		p.rest = p.rest[1:]
	}
	if lead := p.rest; p.digitRun() > 1 && lead[0] == '0' {
		p.ok = false
		return nil
	}
	return tok[:len(tok)-len(p.rest)]
}

// digitRun consumes one or more ASCII digits and returns how many.
func (p *canonParser) digitRun() int {
	n := 0
	for n < len(p.rest) && '0' <= p.rest[n] && p.rest[n] <= '9' {
		n++
	}
	if n == 0 {
		p.ok = false
	}
	p.rest = p.rest[n:]
	return n
}

// int consumes a signed integer that fits in bits bits.
func (p *canonParser) int(bits int) int64 {
	tok := p.digits(true)
	neg := len(tok) > 0 && tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	n := p.magnitude(tok)
	limit := uint64(1) << (bits - 1) // |min|; max is one less
	if n > limit || (n == limit && !neg) {
		p.ok = false
		return 0
	}
	if neg {
		return -int64(n)
	}
	return int64(n)
}

// uint consumes a non-negative integer that fits in 64 bits.
func (p *canonParser) uint() uint64 {
	return p.magnitude(p.digits(false))
}

// magnitude converts a digit run to its value, failing on uint64
// overflow.
func (p *canonParser) magnitude(tok []byte) uint64 {
	var n uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if n > (math.MaxUint64-d)/10 {
			p.ok = false
			return 0
		}
		n = n*10 + d
	}
	return n
}

// bool consumes true or false.
func (p *canonParser) bool() bool {
	if p.ok && len(p.rest) >= 4 && string(p.rest[:4]) == "true" {
		p.rest = p.rest[4:]
		return true
	}
	p.lit("false")
	return false
}

// float consumes a JSON-grammar number — integer part, optional
// fraction, optional exponent — parsed as encoding/json parses it.
func (p *canonParser) float() float64 {
	tok := p.rest
	p.digits(true)
	if p.ok && len(p.rest) > 0 && p.rest[0] == '.' {
		p.rest = p.rest[1:]
		p.digitRun()
	}
	if p.ok && len(p.rest) > 0 && (p.rest[0] == 'e' || p.rest[0] == 'E') {
		p.rest = p.rest[1:]
		if len(p.rest) > 0 && (p.rest[0] == '+' || p.rest[0] == '-') {
			p.rest = p.rest[1:]
		}
		p.digitRun()
	}
	if !p.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(tok[:len(tok)-len(p.rest)]), 64)
	if err != nil {
		p.ok = false
		return 0
	}
	return f
}
