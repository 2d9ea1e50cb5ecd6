// Package lib is the census fixture's one internal package.
package lib

// Reached is named only by Called's result, so Called's caller reaches
// it too.
type Reached struct {
	Hidden hidden
	inner  Unreached
}

type hidden int

// Unreached appears only as an unexported field's type.
type Unreached int

// Called is used by cmd/tool.
func Called() Reached { return Reached{} }

// OnlyCmd is used by cmd/tool.
const OnlyCmd = 1

// OnlyBench is used by bench.
var OnlyBench = 2

// OnlyTested is named only by a _test.go file.
func OnlyTested() {}

// Planted has no caller at all.
func Planted() {}
