package resultdb

import (
	"strconv"
	"strings"
)

// Axes are the grid coordinates a scenario name carries. The campaign
// commands encode their grid cell into the name — the compare suite
// writes "alg/f=…/c=…/faults=…/adversary", the counting demos write
// flat names like "countsim" — so the store can index trials by
// algorithm, resilience and adversary without any side channel.
// Parsing is best-effort: an axis the name does not carry is -1 (for
// the integer axes) or "" (for the string axes), and such a group
// simply never matches a filter on that axis.
type Axes struct {
	// Alg is the name's first plain token (no '='): the algorithm or
	// demo identifier.
	Alg string
	// N, F, C and Faults are the "n=", "f=", "c=" and "faults=" tokens;
	// -1 when absent or unparsable.
	N, F, C, Faults int
	// Adversary is the last plain token after the algorithm, "" when
	// the name has only one plain token.
	Adversary string
}

// parseAxes extracts the axes from a scenario name.
func parseAxes(scenario string) Axes {
	ax := Axes{N: -1, F: -1, C: -1, Faults: -1}
	for _, tok := range strings.Split(scenario, "/") {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			if ax.Alg == "" {
				ax.Alg = tok
			} else {
				ax.Adversary = tok
			}
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			continue
		}
		switch key {
		case "n":
			ax.N = n
		case "f":
			ax.F = n
		case "c":
			ax.C = n
		case "faults":
			ax.Faults = n
		}
	}
	return ax
}
