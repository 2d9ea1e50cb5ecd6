package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/synchcount/synchcount/internal/alg"
	"github.com/synchcount/synchcount/internal/harness"
)

// Trajectory-memo persistence: the confirmed fast-forward cycles a
// campaign discovers (fastforward.go) are facts about the deterministic
// dynamics — a pure function of (algorithm build, faulty set,
// adversary, phase, configuration) — so they stay valid across
// processes. Saving a campaign's memo and loading it into the next run
// of the same grid starts that run warm: eligible trials skip straight
// to their memoised conclusions instead of re-detecting every cycle.
//
// The value codec lives here because the memoised value type
// (trajectoryEntry) is the simulator's; harness.TrajectoryMemo owns
// the framing, key encoding and capacity semantics.

// trajectoryEntryJSON is the interchange form of one confirmed cycle:
// the configuration the fact is keyed under (re-verified against the
// live configuration on every memo hit) and the observation ring of
// one full cycle starting at it, stored columnar.
type trajectoryEntryJSON struct {
	Config []alg.State `json:"config"`
	Agree  []bool      `json:"agree"`
	Common []int       `json:"common"`
}

// saveTrajectoryMemo writes the memo's confirmed cycles to w in the
// deterministic NDJSON format of harness.(*TrajectoryMemo).Save.
func saveTrajectoryMemo(w io.Writer, m *harness.TrajectoryMemo) error {
	return m.Save(w, func(v any) (json.RawMessage, error) {
		e, ok := v.(*trajectoryEntry)
		if !ok {
			return nil, fmt.Errorf("sim: memo value is %T, not a trajectory entry", v)
		}
		out := trajectoryEntryJSON{
			Config: e.config,
			Agree:  make([]bool, len(e.ring)),
			Common: make([]int, len(e.ring)),
		}
		for i, o := range e.ring {
			out.Agree[i] = o.agree
			out.Common[i] = o.common
		}
		return json.Marshal(out)
	})
}

// loadTrajectoryMemo reads a stream written by saveTrajectoryMemo into
// m, returning how many facts are now stored. Every entry is
// cross-checked — the key's configuration hash must match the stored
// configuration under the current hash function — so a corrupted file,
// or one written by a revision with a different hash, is rejected
// loudly instead of poisoning bit-identical replay. (The hash is still
// only a filter: the simulator verifies the full configuration on
// every memo hit.)
func loadTrajectoryMemo(r io.Reader, m *harness.TrajectoryMemo) (int, error) {
	return m.Load(r, func(k harness.TrajectoryKey, data json.RawMessage) (any, error) {
		var in trajectoryEntryJSON
		if err := json.Unmarshal(data, &in); err != nil {
			return nil, err
		}
		if len(in.Agree) == 0 || len(in.Agree) != len(in.Common) {
			return nil, fmt.Errorf("sim: memo entry has a malformed observation ring (%d agree / %d common)", len(in.Agree), len(in.Common))
		}
		if h := ffHash(in.Config); h != k.Hash {
			return nil, fmt.Errorf("sim: memo entry hash %d does not match its configuration (hashes to %d) — stale or corrupt memo file, delete it", k.Hash, h)
		}
		e := &trajectoryEntry{
			config: in.Config,
			ring:   make([]ffObs, len(in.Agree)),
		}
		for i := range in.Agree {
			e.ring[i] = ffObs{agree: in.Agree[i], common: in.Common[i]}
		}
		return e, nil
	})
}

// SaveTrajectoryMemoFile writes the memo to path atomically (temp file
// plus rename), so an interrupted save never destroys the previous
// memo artifact.
func SaveTrajectoryMemoFile(path string, m *harness.TrajectoryMemo) error {
	return harness.AtomicWriteFile(path, func(w io.Writer) error {
		return saveTrajectoryMemo(w, m)
	})
}

// LoadTrajectoryMemoFile loads a memo file written by
// SaveTrajectoryMemoFile into m. A missing file is the caller's
// decision to handle (os.IsNotExist): first runs start cold.
func LoadTrajectoryMemoFile(path string, m *harness.TrajectoryMemo) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := loadTrajectoryMemo(f, m)
	if err != nil {
		return n, fmt.Errorf("%s: %w", path, err)
	}
	return n, nil
}
