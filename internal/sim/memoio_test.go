package sim_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/synchcount/synchcount/internal/ecount"
	"github.com/synchcount/synchcount/internal/harness"
	"github.com/synchcount/synchcount/internal/sim"
)

// memoFixture runs a handful of fast-forward-eligible trials and
// returns the populated trajectory memo plus the configs that built
// it.
func memoFixture(t testing.TB) (*harness.TrajectoryMemo, []sim.Config) {
	t.Helper()
	a, err := ecount.New(16, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	memo := harness.NewTrajectoryMemo(0)
	var cfgs []sim.Config
	for seed := int64(1); seed <= 4; seed++ {
		cfg := sim.Config{
			Alg:       a,
			Faulty:    spreadFaults(16, 3),
			Adv:       splitVote,
			MaxRounds: 1 << 14,
			Seed:      seed,
			Memo:      memo,
			MemoAlg:   "ecount/n=16/f=3/c=8",
		}
		if _, err := sim.RunFull(cfg); err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	if memo.Len() == 0 {
		t.Fatal("fixture produced no memo entries")
	}
	return memo, cfgs
}

// saveMemo returns the memo's saved form.
func saveMemo(t testing.TB, m *harness.TrajectoryMemo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// savedCycle mirrors one cycle line of a saved memo.
type savedCycle struct {
	Period uint64     `json:"period"`
	Start  uint64     `json:"start"`
	Rows   [][]uint64 `json:"rows"`
	Agree  []bool     `json:"agree"`
	Common []int      `json:"common"`
}

// savedCycles decodes the cycle lines of a saved memo.
func savedCycles(t testing.TB, data []byte) []savedCycle {
	t.Helper()
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	cycles := make([]savedCycle, len(lines)-1)
	for i, line := range lines[1:] {
		if err := json.Unmarshal(line, &cycles[i]); err != nil {
			t.Fatalf("cycle line %d: %v", i+2, err)
		}
	}
	return cycles
}

// TestTrajectoryMemoSaveLoadRoundTrip: saving, loading into a fresh
// memo and saving again must be lossless and byte-deterministic — the
// property that makes memo files diffable artifacts.
func TestTrajectoryMemoSaveLoadRoundTrip(t *testing.T) {
	memo, _ := memoFixture(t)
	first := saveMemo(t, memo)
	loaded := harness.NewTrajectoryMemo(0)
	n, err := loaded.Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if n != memo.Len() || loaded.Len() != memo.Len() {
		t.Fatalf("loaded %d rows into a memo of %d, want %d", n, loaded.Len(), memo.Len())
	}
	if second := saveMemo(t, loaded); !bytes.Equal(first, second) {
		t.Fatalf("save -> load -> save is not a fixed point\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestTrajectoryMemoFileIsLinear pins the file to one line per
// confirmed cycle, each holding the cycle's configurations and one
// observation ring: the fixture's four 360-round cycles save in under
// 300 kB (one line per configuration, each with its own ring, took
// 4 MB).
func TestTrajectoryMemoFileIsLinear(t *testing.T) {
	memo, _ := memoFixture(t)
	data := saveMemo(t, memo)
	cycles := savedCycles(t, data)
	if len(cycles) != 4 {
		t.Fatalf("saved %d cycle lines, want 4", len(cycles))
	}
	rows := 0
	for i, c := range cycles {
		if len(c.Rows) != len(c.Agree) {
			t.Errorf("cycle %d saved %d configurations for a ring of %d", i, len(c.Rows), len(c.Agree))
		}
		rows += len(c.Rows)
	}
	if rows != memo.Len() {
		t.Errorf("saved %d configurations, memo indexes %d", rows, memo.Len())
	}
	if len(data) >= 300_000 {
		t.Errorf("saved memo is %d bytes, want < 300000", len(data))
	}
}

// TestTrajectoryMemoWarmStart: a process that loads a saved memo must
// produce bit-identical results to the process that built it — and
// actually use the loaded cycles.
func TestTrajectoryMemoWarmStart(t *testing.T) {
	memo, cfgs := memoFixture(t)
	path := filepath.Join(t.TempDir(), "memo.ndjson")
	if err := memo.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	warm := harness.NewTrajectoryMemo(0)
	if _, err := warm.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range cfgs {
		cold := cfg
		cold.Memo = nil
		cold.NoFastForward = true
		want, err := sim.Run(cold)
		if err != nil {
			t.Fatal(err)
		}
		hot := cfg
		hot.Memo = warm
		got, err := sim.Run(hot)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("warm-started run diverged (seed %d):\n  warm %+v\n  cold %+v", cfg.Seed, got, want)
		}
	}
	if hits, _, _ := warm.Stats(); hits == 0 {
		t.Error("warm-started runs never hit the loaded memo")
	}
}

// TestTrajectoryMemoLoadRejectsCorrupt: a tampered or foreign memo
// file must be rejected loudly, naming the offending line — loading it
// silently would poison bit-identical replay.
func TestTrajectoryMemoLoadRejectsCorrupt(t *testing.T) {
	memo, _ := memoFixture(t)
	lines := strings.SplitAfter(strings.TrimRight(string(saveMemo(t, memo)), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("saved memo has %d lines, want header + cycles", len(lines))
	}
	// edit rewrites the first cycle line through f.
	edit := func(t *testing.T, f func(c map[string]any)) string {
		dec := json.NewDecoder(strings.NewReader(lines[1]))
		dec.UseNumber()
		var c map[string]any
		if err := dec.Decode(&c); err != nil {
			t.Fatal(err)
		}
		f(c)
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return lines[0] + string(out) + "\n"
	}
	for _, tc := range []struct {
		name, want string
		f          func(c map[string]any)
	}{
		{"zero period", "period", func(c map[string]any) { c["period"] = 0 }},
		{"start outside period", "period", func(c map[string]any) { c["start"] = c["period"] }},
		{"no rows", "0 configuration rows", func(c map[string]any) { c["rows"] = []any{} }},
		{"more rows than ring", "configuration rows", func(c map[string]any) {
			rows := c["rows"].([]any)
			c["rows"] = append(rows, rows[0])
		}},
		{"ragged row", "words", func(c map[string]any) {
			rows := c["rows"].([]any)
			row := rows[1].([]any)
			rows[1] = row[:len(row)-1]
		}},
		{"empty ring", "ring", func(c map[string]any) { c["agree"], c["common"] = []any{}, []any{} }},
		{"ring columns disagree", "ring", func(c map[string]any) { c["common"] = c["common"].([]any)[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := harness.NewTrajectoryMemo(0)
			_, err := m.Load(strings.NewReader(edit(t, tc.f)))
			if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corrupt cycle accepted or not named (err=%v)", err)
			}
			if m.Len() != 0 {
				t.Fatalf("memo holds %d rows after a rejected line", m.Len())
			}
		})
	}
	t.Run("wrong schema", func(t *testing.T) {
		for _, schema := range []string{"somebody-elses/v9", "synchcount-trajectory-memo/v1"} {
			m := harness.NewTrajectoryMemo(0)
			in := `{"schema":"` + schema + `"}` + "\n" + lines[1]
			if _, err := m.Load(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "schema") {
				t.Fatalf("schema %s accepted (err=%v)", schema, err)
			}
		}
	})
	t.Run("truncated entry", func(t *testing.T) {
		m := harness.NewTrajectoryMemo(0)
		in := lines[0] + lines[1][:len(lines[1])/2]
		if _, err := m.Load(strings.NewReader(in)); err == nil {
			t.Fatal("truncated entry accepted")
		}
	})
	t.Run("missing file", func(t *testing.T) {
		m := harness.NewTrajectoryMemo(0)
		_, err := m.LoadFile(filepath.Join(t.TempDir(), "absent.ndjson"))
		if !os.IsNotExist(err) {
			t.Fatalf("want os.IsNotExist, got %v", err)
		}
	})
}

// FuzzLoadTrajectoryMemo feeds arbitrary bytes to the memo loader,
// seeded with the whole saved fixture and its truncations. Loading
// must never panic, every cycle it accepts must pass the loader's
// validation (period, start phase, row count and width, ring), and
// whatever was accepted must save and load again without loss.
func FuzzLoadTrajectoryMemo(f *testing.F) {
	memo, _ := memoFixture(f)
	saved := saveMemo(f, memo)
	f.Add(saved)
	f.Add(saved[:bytes.IndexByte(saved, '\n')+1]) // the header alone
	for _, cut := range []int{0, 1, len(saved) / 3, len(saved) / 2, len(saved) - 1} {
		f.Add(saved[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := harness.NewTrajectoryMemo(0)
		n, _ := m.Load(bytes.NewReader(data))
		if m.Len() != n {
			t.Fatalf("memo indexes %d rows but Load reported %d", m.Len(), n)
		}
		out := saveMemo(t, m)
		for i, c := range savedCycles(t, out) {
			L := len(c.Agree)
			switch {
			case c.Period == 0 || c.Start >= c.Period:
				t.Fatalf("accepted cycle %d: start phase %d outside period %d", i, c.Start, c.Period)
			case L == 0 || len(c.Common) != L:
				t.Fatalf("accepted cycle %d: ring of %d agree, %d common", i, L, len(c.Common))
			case len(c.Rows) == 0 || len(c.Rows) > L:
				t.Fatalf("accepted cycle %d: %d rows for a ring of %d", i, len(c.Rows), L)
			}
			for j, row := range c.Rows {
				if len(row) != len(c.Rows[0]) {
					t.Fatalf("accepted cycle %d: row %d has %d words, row 0 has %d", i, j, len(row), len(c.Rows[0]))
				}
			}
		}
		again := harness.NewTrajectoryMemo(0)
		if n2, err := again.Load(bytes.NewReader(out)); err != nil || n2 != m.Len() {
			t.Fatalf("reloading accepted cycles: %d of %d rows (err %v)", n2, m.Len(), err)
		}
	})
}
