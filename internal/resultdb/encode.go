package resultdb

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"

	"github.com/synchcount/synchcount/internal/harness"
)

// appendSegment appends seg encoded exactly as json.Encoder with
// SetIndent("", "  ") writes it, trailing newline included, without
// reflection. A NaN or infinite MeanPulls fails with the error
// json.Encoder returns for it. FuzzSegmentEncoding pins the two
// byte for byte.
func appendSegment(b []byte, seg *segment) ([]byte, error) {
	b = append(b, "{\n  \"schema\": "...)
	b = appendString(b, seg.Schema)
	b = append(b, ",\n  \"segment\": "...)
	b = strconv.AppendInt(b, int64(seg.ID), 10)
	b = append(b, ",\n  \"groups\": "...)
	switch {
	case seg.Groups == nil:
		b = append(b, "null"...)
	case len(seg.Groups) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range seg.Groups {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendGroup(b, &seg.Groups[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), nil
}

// appendGroup appends one element of the segment's groups array.
func appendGroup(b []byte, g *segGroup) ([]byte, error) {
	b = append(b, "\n    {\n      \"campaign\": "...)
	b = appendString(b, g.Campaign)
	b = append(b, ",\n      \"campaign_seed\": "...)
	b = strconv.AppendInt(b, g.CampaignSeed, 10)
	b = append(b, ",\n      \"scenario\": "...)
	b = appendString(b, g.Scenario)
	b = append(b, ",\n      \"scenario_seed\": "...)
	b = strconv.AppendInt(b, g.ScenarioSeed, 10)
	b = append(b, ",\n      \"trials\": "...)
	switch {
	case g.Trials == nil:
		b = append(b, "null"...)
	case len(g.Trials) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range g.Trials {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendTrial(b, &g.Trials[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, "\n      ]"...)
	}
	return append(b, "\n    }"...), nil
}

// appendTrial appends one element of a group's trials array.
func appendTrial(b []byte, tr *harness.Trial) ([]byte, error) {
	b = append(b, "\n        {\n          \"trial\": "...)
	b = strconv.AppendInt(b, int64(tr.Trial), 10)
	b = append(b, ",\n          \"seed\": "...)
	b = strconv.AppendInt(b, tr.Seed, 10)
	b = append(b, ",\n          \"stabilised\": "...)
	b = strconv.AppendBool(b, tr.Stabilised)
	b = append(b, ",\n          \"stabilisation_time\": "...)
	b = strconv.AppendUint(b, tr.StabilisationTime, 10)
	b = append(b, ",\n          \"rounds_run\": "...)
	b = strconv.AppendUint(b, tr.RoundsRun, 10)
	b = append(b, ",\n          \"violations\": "...)
	b = strconv.AppendUint(b, tr.Violations, 10)
	b = append(b, ",\n          \"messages_per_round\": "...)
	b = strconv.AppendUint(b, tr.MessagesPerRound, 10)
	b = append(b, ",\n          \"bits_per_round\": "...)
	b = strconv.AppendUint(b, tr.BitsPerRound, 10)
	b = append(b, ",\n          \"max_pulls\": "...)
	b = strconv.AppendUint(b, tr.MaxPulls, 10)
	b = append(b, ",\n          \"mean_pulls\": "...)
	b, err := appendFloat(b, tr.MeanPulls)
	if err != nil {
		return nil, err
	}
	return append(b, "\n        }"...), nil
}

// appendString quotes s as encoding/json does. Plain printable ASCII
// is copied as is; anything encoding/json would escape (quotes,
// backslashes, control bytes, <>&, U+2028/2029, invalid UTF-8) is
// handed to json.Marshal, which cannot fail on a string.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat formats f as encoding/json formats a float64: 'f' form
// for magnitudes in [1e-6, 1e21) and zero, 'e' form otherwise with a
// two-digit negative exponent shortened (e-07 becomes e-7).
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
