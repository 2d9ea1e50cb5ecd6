// Package registrytest holds the registry's conformance grid: for
// every registered algorithm, the parameter cells that the conformance
// suite (internal/registry) and the simulator's differential suites
// (internal/sim) run, kept small enough for CI. It is test support:
// only _test.go files import it, and the conformance suite fails for a
// registered name without cells here.
package registrytest

import "github.com/synchcount/synchcount/internal/registry"

// Cells lists each registered algorithm's conformance cells by name.
var Cells = map[string][]registry.Params{
	"trivial": {
		{N: 1, C: 2},
		{N: 1, C: 10},
	},
	"maxstep": {
		{N: 4, C: 10},
		{N: 9, C: 3},
	},
	"randagree": {
		{N: 4, F: 1, C: 2},
		{N: 7, F: 2, C: 2},
	},
	"randbiased": {
		{N: 4, F: 1, C: 2},
		{N: 7, F: 2, C: 2},
	},
	"corollary1": {
		{F: 1, C: 4},
	},
	"theorem2": {
		{F: 1, C: 6},
		{F: 3, C: 12},
	},
	"figure2": {
		{C: 10},
	},
	"ecount": {
		{F: 1, C: 10},
		{F: 2, C: 8},
		{F: 3, C: 4},
	},
	"ecount-chain": {
		{F: 1, C: 10},
		{F: 2, C: 8},
		{F: 3, C: 4},
	},
}
