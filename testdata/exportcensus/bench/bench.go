package bench

import helper "example.com/fixture/internal/lib"

var Total = helper.OnlyBench
