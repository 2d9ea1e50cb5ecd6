package lib_test

import "example.com/fixture/internal/lib"

var _ = lib.OnlyTested

func init() { lib.Square(2).TestedOnly() }
