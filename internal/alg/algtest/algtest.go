// Package algtest holds test fixtures shared by the packages that
// implement alg.BatchStepper.
package algtest

import (
	"math/rand"

	"github.com/synchcount/synchcount/internal/alg"
)

// Untouched fills a next-state vector before StepAll, so a test can
// tell that the entries of faulty nodes were left alone.
const Untouched = ^alg.State(0)

// RowSharings are the receiver-class layouts ClassedRows builds.
var RowSharings = []string{"nil", "alternating", "all-equal", "mixed"}

// ClassedRows forges one patch row per correct receiver and labels
// them per sharing: "nil" draws every row afresh and leaves Class nil;
// "alternating" shows two rows by receiver parity; "all-equal" shows
// one row to everyone; "mixed" shows each receiver one of two shared
// rows or an unshared fresh one (−1). Members get equal copies, never
// aliases, and faulty receivers carry labels too, which a batch
// stepper must ignore.
func ClassedRows(rng *rand.Rand, sharing string, faulty []bool, nf int, space uint64) ([][]alg.State, []int32) {
	draw := func() []alg.State {
		row := make([]alg.State, nf)
		for j := range row {
			row[j] = rng.Uint64() % space
		}
		return row
	}
	pool := [][]alg.State{draw(), draw()}
	values := make([][]alg.State, len(faulty))
	var class []int32
	if sharing != "nil" {
		class = make([]int32, len(faulty))
	}
	for v := range faulty {
		var label int32 = -1
		switch sharing {
		case "alternating":
			label = int32(v % 2)
		case "all-equal":
			label = 0
		case "mixed":
			label = int32(rng.Intn(3)) - 1
		}
		if class != nil {
			class[v] = label
		}
		if faulty[v] {
			continue
		}
		if label < 0 {
			values[v] = draw()
		} else {
			values[v] = append([]alg.State(nil), pool[label]...)
		}
	}
	return values, class
}
