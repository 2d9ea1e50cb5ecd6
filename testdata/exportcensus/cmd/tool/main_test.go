package main

import (
	"testing"

	"example.com/fixture/internal/lib"
)

func TestTool(t *testing.T) { lib.OnlyTested() }
