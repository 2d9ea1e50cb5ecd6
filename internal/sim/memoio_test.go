package sim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/synchcount/synchcount/internal/adversary"
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
			Adv:       adversary.SplitVote{},
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

// TestTrajectoryMemoSaveLoadRoundTrip: saving, loading into a fresh
// memo and saving again must be lossless and byte-deterministic — the
// property that makes memo files diffable artifacts.
func TestTrajectoryMemoSaveLoadRoundTrip(t *testing.T) {
	memo, _ := memoFixture(t)

	var first bytes.Buffer
	if err := sim.SaveTrajectoryMemo(&first, memo); err != nil {
		t.Fatal(err)
	}
	loaded := harness.NewTrajectoryMemo(0)
	n, err := sim.LoadTrajectoryMemo(bytes.NewReader(first.Bytes()), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if n != memo.Len() || loaded.Len() != memo.Len() {
		t.Fatalf("loaded %d entries into a memo of %d, want %d", n, loaded.Len(), memo.Len())
	}
	var second bytes.Buffer
	if err := sim.SaveTrajectoryMemo(&second, loaded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("save -> load -> save is not a fixed point\n--- first ---\n%s\n--- second ---\n%s", first.Bytes(), second.Bytes())
	}
}

// TestTrajectoryMemoWarmStart: a process that loads a saved memo must
// produce bit-identical results to the process that built it — and
// actually use the loaded facts.
func TestTrajectoryMemoWarmStart(t *testing.T) {
	memo, cfgs := memoFixture(t)
	path := filepath.Join(t.TempDir(), "memo.ndjson")
	if err := sim.SaveTrajectoryMemoFile(path, memo); err != nil {
		t.Fatal(err)
	}

	warm := harness.NewTrajectoryMemo(0)
	if _, err := sim.LoadTrajectoryMemoFile(path, warm); err != nil {
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
// file must be rejected loudly — loading it silently would poison
// bit-identical replay.
func TestTrajectoryMemoLoadRejectsCorrupt(t *testing.T) {
	memo, _ := memoFixture(t)
	var buf bytes.Buffer
	if err := sim.SaveTrajectoryMemo(&buf, memo); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("saved memo has %d lines, want header + entries", len(lines))
	}

	t.Run("hash mismatch", func(t *testing.T) {
		// Re-key one entry under a different hash: the stored
		// configuration no longer hashes to it.
		entry := lines[1]
		idx := strings.Index(entry, `"hash":"`)
		if idx < 0 {
			t.Fatalf("no hash field in %q", entry)
		}
		digit := entry[idx+len(`"hash":"`):][:1]
		flipped := "1"
		if digit == "1" {
			flipped = "2"
		}
		corrupt := lines[0] + entry[:idx+len(`"hash":"`)] + flipped + entry[idx+len(`"hash":"`)+1:]
		m := harness.NewTrajectoryMemo(0)
		if _, err := sim.LoadTrajectoryMemo(strings.NewReader(corrupt), m); err == nil || !strings.Contains(err.Error(), "stale or corrupt") {
			t.Fatalf("tampered hash accepted (err=%v)", err)
		}
	})
	t.Run("wrong schema", func(t *testing.T) {
		m := harness.NewTrajectoryMemo(0)
		in := `{"schema":"somebody-elses/v9"}` + "\n" + lines[1]
		if _, err := sim.LoadTrajectoryMemo(strings.NewReader(in), m); err == nil || !strings.Contains(err.Error(), "schema") {
			t.Fatalf("foreign schema accepted (err=%v)", err)
		}
	})
	t.Run("truncated entry", func(t *testing.T) {
		m := harness.NewTrajectoryMemo(0)
		in := lines[0] + lines[1][:len(lines[1])/2]
		if _, err := sim.LoadTrajectoryMemo(strings.NewReader(in), m); err == nil {
			t.Fatal("truncated entry accepted")
		}
	})
	t.Run("empty ring", func(t *testing.T) {
		m := harness.NewTrajectoryMemo(0)
		entry := lines[1]
		idx := strings.Index(entry, `"value":`)
		if idx < 0 {
			t.Fatalf("no value field in %q", entry)
		}
		in := lines[0] + entry[:idx] + `"value":{"config":[],"agree":[],"common":[]}}` + "\n"
		if _, err := sim.LoadTrajectoryMemo(strings.NewReader(in), m); err == nil || !strings.Contains(err.Error(), "ring") {
			t.Fatalf("empty observation ring accepted (err=%v)", err)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		m := harness.NewTrajectoryMemo(0)
		_, err := sim.LoadTrajectoryMemoFile(filepath.Join(t.TempDir(), "absent.ndjson"), m)
		if !os.IsNotExist(err) {
			t.Fatalf("want os.IsNotExist, got %v", err)
		}
	})
}

// FuzzLoadTrajectoryMemo feeds arbitrary bytes to LoadTrajectoryMemo,
// seeded with a real saved memo and its truncations. Loading must
// never panic, every entry it accepts must be a well-formed fact for
// its key (CheckMemoEntry), and whatever was accepted must save and
// load again without loss.
func FuzzLoadTrajectoryMemo(f *testing.F) {
	memo, _ := memoFixture(f)
	var buf bytes.Buffer
	if err := sim.SaveTrajectoryMemo(&buf, memo); err != nil {
		f.Fatal(err)
	}
	// The whole fixture saves to megabytes; its header and first three
	// entries are a real memo file of a size the fuzzer can mutate.
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
	if len(lines) < 4 {
		f.Fatalf("saved memo has %d lines, want header + 3 entries", len(lines))
	}
	saved := bytes.Join(lines[:4], nil)
	f.Add(saved)
	f.Add(lines[0]) // the header alone
	for _, cut := range []int{0, 1, len(saved) / 3, len(saved) / 2, len(saved) - 1} {
		f.Add(saved[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := harness.NewTrajectoryMemo(0)
		n, _ := sim.LoadTrajectoryMemo(bytes.NewReader(data), m)
		if m.Len() > n {
			t.Fatalf("memo holds %d entries but Load reported %d", m.Len(), n)
		}
		m.Range(func(k harness.TrajectoryKey, v any) bool {
			if err := sim.CheckMemoEntry(k, v); err != nil {
				t.Fatalf("accepted entry %+v: %v", k, err)
			}
			return true
		})
		var out bytes.Buffer
		if err := sim.SaveTrajectoryMemo(&out, m); err != nil {
			t.Fatalf("re-saving accepted entries: %v", err)
		}
		again := harness.NewTrajectoryMemo(0)
		if n2, err := sim.LoadTrajectoryMemo(&out, again); err != nil || n2 != m.Len() {
			t.Fatalf("reloading accepted entries: %d of %d (err %v)", n2, m.Len(), err)
		}
	})
}
