package registry

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/synchcount/synchcount/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite the compare golden files under internal/harness/testdata/")

// goldenCompareSpec is frozen: changing it — or anything in the
// compare pipeline that alters its output — invalidates the
// compare_golden.* files under internal/harness/testdata/, which is
// the drift these tests exist to catch. Regenerate deliberately with
// `go test ./internal/registry -run TestCompareGolden -update`.
func goldenCompareSpec() CompareSpec {
	return CompareSpec{
		Algs:        []string{"ecount", "ecount-chain", "corollary1", "randagree"},
		Fs:          []int{1},
		C:           2,
		Adversaries: []string{"silent", "splitvote"},
		Trials:      5,
		Seed:        11,
		Workers:     1,
	}
}

// goldenPath points into internal/harness/testdata/, where every
// campaign-export golden in this repository lives.
func goldenPath(file string) string {
	return filepath.Join("..", "harness", "testdata", file)
}

func runGoldenCompare(t *testing.T) (*harness.Result, []CompareCell, CompareSpec) {
	t.Helper()
	spec := goldenCompareSpec()
	campaign, cells, err := spec.Campaign()
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, cells, spec
}

// TestCompareGolden locks the compare command's four export formats —
// the harness JSON/CSV/NDJSON plus the per-algorithm comparison table
// — to checked-in golden files.
func TestCompareGolden(t *testing.T) {
	res, cells, spec := runGoldenCompare(t)
	rows, err := Table(cells, spec.Adversaries, res)
	if err != nil {
		t.Fatal(err)
	}
	formats := []struct {
		file  string
		write func(*bytes.Buffer) error
	}{
		{"compare_golden.json", func(b *bytes.Buffer) error { return res.WriteJSON(b) }},
		{"compare_golden.csv", func(b *bytes.Buffer) error { return res.WriteCSV(b) }},
		{"compare_golden.ndjson", func(b *bytes.Buffer) error { return res.WriteNDJSON(b) }},
		{"compare_golden_table.csv", func(b *bytes.Buffer) error { return WriteTableCSV(b, rows) }},
	}
	for _, f := range formats {
		t.Run(f.file, func(t *testing.T) {
			var got bytes.Buffer
			if err := f.write(&got); err != nil {
				t.Fatal(err)
			}
			path := goldenPath(f.file)
			if *updateGolden {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to generate)", err)
			}
			if !bytes.Equal(want, got.Bytes()) {
				t.Fatalf("%s drifted from its golden file\n--- golden ---\n%s\n--- current ---\n%s\n(run with -update if the change is intentional)",
					f.file, want, got.Bytes())
			}
		})
	}
}

// exports renders a result's three harness export formats.
func exports(t *testing.T, res *harness.Result) (jsonB, csvB, ndjsonB []byte) {
	t.Helper()
	var j, c, n bytes.Buffer
	if err := res.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteNDJSON(&n); err != nil {
		t.Fatal(err)
	}
	return j.Bytes(), c.Bytes(), n.Bytes()
}

// TestCompareDifferential is the lockdown for the compare pipeline on
// the PR 2 pattern: for one fixed spec, the buffered run, the
// streaming-sink run, and the 2-way shard split re-merged must produce
// byte-identical output in every format, at several worker counts.
func TestCompareDifferential(t *testing.T) {
	spec := goldenCompareSpec()
	ref, refCells, err := func() (*harness.Result, []CompareCell, error) {
		c, cells, err := spec.Campaign()
		if err != nil {
			return nil, nil, err
		}
		res, err := c.Run(context.Background())
		return res, cells, err
	}()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, refCSV, refNDJSON := exports(t, ref)
	refRows, err := Table(refCells, spec.Adversaries, ref)
	if err != nil {
		t.Fatal(err)
	}
	var refTable bytes.Buffer
	if err := WriteTableCSV(&refTable, refRows); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		spec := spec
		spec.Workers = workers
		campaign, cells, err := spec.Campaign()
		if err != nil {
			t.Fatal(err)
		}

		// Buffered.
		buffered, err := campaign.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		j, c, n := exports(t, buffered)
		mustEqual(t, "buffered json", refJSON, j)
		mustEqual(t, "buffered csv", refCSV, c)
		mustEqual(t, "buffered ndjson", refNDJSON, n)

		// Streamed: a live NDJSON sink must emit the same bytes the
		// buffered export renders.
		var live bytes.Buffer
		col := harness.NewCollector()
		if err := campaign.Stream(context.Background(), col, harness.NDJSONSink(&live)); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "streamed ndjson", refNDJSON, live.Bytes())

		// 2-way shard + merge.
		var parts []*harness.Result
		for i := 0; i < 2; i++ {
			sp, err := campaign.Shard(i, 2)
			if err != nil {
				t.Fatal(err)
			}
			col := harness.NewCollector()
			if err := campaign.StreamShard(context.Background(), sp, col); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, col.Result())
		}
		merged, err := harness.Merge(parts...)
		if err != nil {
			t.Fatal(err)
		}
		j, c, n = exports(t, merged)
		mustEqual(t, "merged json", refJSON, j)
		mustEqual(t, "merged csv", refCSV, c)
		mustEqual(t, "merged ndjson", refNDJSON, n)

		// The comparison table joined against the merged result must
		// match the buffered table too.
		rows, err := Table(cells, spec.Adversaries, merged)
		if err != nil {
			t.Fatal(err)
		}
		var table bytes.Buffer
		if err := WriteTableCSV(&table, rows); err != nil {
			t.Fatal(err)
		}
		mustEqual(t, "merged table", refTable.Bytes(), table.Bytes())
	}
}

func mustEqual(t *testing.T, label string, want, got []byte) {
	t.Helper()
	if !bytes.Equal(want, got) {
		t.Fatalf("%s differs\n--- want ---\n%s\n--- got ---\n%s", label, want, got)
	}
}

// TestTableRejectsForeignResults: joining a result from a different
// comparison must fail loudly instead of mislabelling columns.
func TestTableRejectsForeignResults(t *testing.T) {
	res, cells, spec := runGoldenCompare(t)
	res.Scenarios[0].Name = "someone-else/f=9/quiet"
	if _, err := Table(cells, spec.Adversaries, res); err == nil {
		t.Fatal("Table accepted a foreign scenario name")
	}
}

// TestCompareFastForwardDifferential locks the fast-forward engine
// down at the compare-campaign level: the same spec run with the
// engine on (cycle detection plus the shared trajectory memo) and off
// must serialise byte-identically — JSON, NDJSON and the comparison
// table. This is the cross-trial companion of the per-run differential
// suite in internal/sim.
func TestCompareFastForwardDifferential(t *testing.T) {
	build := func(noFF bool) ([]byte, []byte, []byte) {
		spec := CompareSpec{
			Algs:          []string{"ecount", "theorem2"},
			Fs:            []int{1},
			C:             6,
			Adversaries:   []string{"silent", "splitvote"},
			Trials:        8,
			Seed:          9,
			Workers:       4,
			NoFastForward: noFF,
		}
		campaign, cells, err := spec.Campaign()
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var js, nd, table bytes.Buffer
		if err := res.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		if err := res.WriteNDJSON(&nd); err != nil {
			t.Fatal(err)
		}
		rows, err := Table(cells, spec.Adversaries, res)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteTableCSV(&table, rows); err != nil {
			t.Fatal(err)
		}
		return js.Bytes(), nd.Bytes(), table.Bytes()
	}
	fastJS, fastND, fastTable := build(false)
	slowJS, slowND, slowTable := build(true)
	if !bytes.Equal(fastJS, slowJS) {
		t.Error("fast-forwarded compare JSON differs from the slow path")
	}
	if !bytes.Equal(fastND, slowND) {
		t.Error("fast-forwarded compare NDJSON differs from the slow path")
	}
	if !bytes.Equal(fastTable, slowTable) {
		t.Error("fast-forwarded compare table differs from the slow path")
	}
}
