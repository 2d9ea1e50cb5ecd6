// Package lib is the census fixture's one internal package.
package lib

import (
	"flag"
	"strconv"
)

// Reached is named only by Called's result, so Called's caller reaches
// it too. Nothing names its dropped field.
type Reached struct {
	Hidden  hidden
	inner   Unreached
	dropped int
}

type hidden int

// Unreached appears only as an unexported field's type.
type Unreached int

// Called is used by cmd/tool.
func Called() Reached { return Reached{Hidden: 1, inner: 2} }

// OnlyCmd is used by cmd/tool.
const OnlyCmd = 1

// OnlyBench is used by bench.
var OnlyBench = 2

// OnlyTested is named only by a _test.go file.
func OnlyTested() {}

// Planted has no caller at all.
func Planted() {}

// Shape is the module interface Square satisfies. Nothing calls
// Sides, so Shape.Sides is flagged, while Square.Sides is accepted as
// Shape's.
type Shape interface {
	Area() int
	Sides() int
}

// Square's Area is reached only through Shape.
type Square int

func (s Square) Area() int { return int(s * s) }

func (s Square) Sides() int { return 4 }

// Orphan has no caller at all.
func (s Square) Orphan() {}

// TestedOnly is called only by a _test.go file.
func (s Square) TestedOnly() {}

// Measure is used by cmd/tool.
func Measure(s Shape) int { return s.Area() }

// level's Set is reached only through flag.Value.
type level int

func (l *level) String() string { return strconv.Itoa(int(*l)) }

func (l *level) Set(s string) error {
	v, err := strconv.Atoi(s)
	*l = level(v)
	return err
}

// Register is used by cmd/tool.
func Register(fs *flag.FlagSet) { fs.Var(new(level), "level", "a level") }
