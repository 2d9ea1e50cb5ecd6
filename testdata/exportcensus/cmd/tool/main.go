package main

import (
	"flag"
	"fmt"

	"example.com/fixture/internal/lib"
)

func main() {
	lib.Register(flag.CommandLine)
	fmt.Println(lib.Called(), lib.OnlyCmd, lib.Measure(lib.Square(3)))
}
