package sim

import (
	"reflect"
	"testing"

	"github.com/synchcount/synchcount/internal/alg"
)

// TestClassifyRows pins the receiver-class labels the kernel hands to
// batch steppers: one class for a shared row, two for a parity split,
// −1 for rows nobody shares, and no comparisons at all once the cap is
// full of rows that all differ.
func TestClassifyRows(t *testing.T) {
	const n = 8
	faulty := []bool{false, true, false, false, false, false, false, true}
	for _, tc := range []struct {
		name string
		row  func(v int) alg.State
		want []int32
	}{
		{"one-row", func(int) alg.State { return 5 }, []int32{0, -1, 0, 0, 0, 0, 0, -1}},
		{"parity", func(v int) alg.State { return alg.State(v % 2) }, []int32{0, -1, 0, 1, 0, 1, 0, -1}},
		{"singleton", func(v int) alg.State {
			if v == 4 {
				return 9
			}
			return 1
		}, []int32{0, -1, 0, 0, -1, 0, 0, -1}},
		{"all-distinct", func(v int) alg.State { return alg.State(v) }, []int32{-1, -1, -1, -1, -1, -1, -1, -1}},
		// Four distinct rows fill the cap before receiver 6 repeats
		// receiver 0's row, so the round counts as unshared.
		{"cap-full", func(v int) alg.State { return alg.State(v % 6) }, []int32{-1, -1, -1, -1, -1, -1, -1, -1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newScratch(n)
			copy(s.faulty, faulty)
			s.preparePatches(n)
			for v, row := range s.patches.Values {
				for j := range row {
					row[j] = tc.row(v) + alg.State(j)
				}
			}
			s.classifyRows()
			if !reflect.DeepEqual(s.patches.Class, tc.want) {
				t.Fatalf("Class = %v, want %v", s.patches.Class, tc.want)
			}
		})
	}
}
