// Command synchcount reproduces the experiments of "Towards Optimal
// Synchronous Counting" (arXiv:1503.06702) and its companions as
// subcommands of one binary:
//
//	synchcount countsim  -alg optimal -f 1 -c 10 -faults 2 -adversary splitvote
//	synchcount table1    -trials 10
//	synchcount fig2      -trials 8
//	synchcount compare   -algs ecount,corollary1 -f 1 -trials 20
//	synchcount resultdb  query -db results.db -algs ecount
//
// Every subcommand parses its own flag set (`synchcount <command> -h`
// lists it) and writes its report to stdout; flag checking lives in
// internal/campaigncli.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// command is one subcommand: its name, a one-line summary for the
// usage listing, and its entry point, which writes its report to out.
type command struct {
	name, summary string
	run           func(args []string, out io.Writer) error
}

var commands = []command{
	{"countsim", "simulate one counter over a trial campaign, against its analytical bound", runCountsim},
	{"compare", "head-to-head campaigns between the registry's counter stacks", runCompare},
	{"table1", "the paper's Table 1: analytical vs measured 2-counting algorithms", runTable1},
	{"fig1", "the paper's Figure 1: leader-pointer timelines of a boosted counter", runFig1},
	{"fig2", "the paper's Figure 2: the 36-node recursive stack under attack", runFig2},
	{"pullbench", "Section 5 pulling-model sweep, or the sparse pull kernel at scale", runPullbench},
	{"liverun", "soak a counting stack as a live goroutine-per-node service under chaos", runLiverun},
	{"resultdb", "ingest campaign exports into a results store and query it", runResultdb},
	{"synth", "exhaustive synthesis of anonymous single-bit 2-counters", runSynth},
}

func main() {
	err := dispatch("synchcount", commands, os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "synchcount:", err)
		os.Exit(1)
	}
}

// dispatch runs the command of cmds that args[0] names, prefixing its
// errors with the command's name; `help` lists cmds on out.
func dispatch(prog string, cmds []command, args []string, out io.Writer) error {
	usage := func(w io.Writer) {
		fmt.Fprintf(w, "usage: %s <command> [flags]\n\ncommands:\n", prog)
		for _, c := range cmds {
			fmt.Fprintf(w, "  %-13s  %s\n", c.name, c.summary)
		}
		fmt.Fprintf(w, "\nrun '%s <command> -h' for the command's flags\n", prog)
	}
	if len(args) == 0 {
		usage(os.Stderr)
		return errors.New("missing command")
	}
	for _, c := range cmds {
		if c.name == args[0] {
			if err := c.run(args[1:], out); err != nil {
				return fmt.Errorf("%s: %w", c.name, err)
			}
			return nil
		}
	}
	switch args[0] {
	case "help", "-h", "-help", "--help":
		usage(out)
		return nil
	}
	usage(os.Stderr)
	return fmt.Errorf("unknown command %q", args[0])
}

// parseFlags parses a subcommand's flags and rejects bare arguments:
// flag parsing stops at the first bare word, so anything after it —
// later flags included — would otherwise be silently ignored.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: %s takes flags only", fs.Arg(0), fs.Name())
	}
	return nil
}
