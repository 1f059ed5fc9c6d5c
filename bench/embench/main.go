// Command embench is the repository's end-to-end benchmark: four
// fixed-work workloads over the paper's develop -> deploy -> serve path,
// timed as medians over equal segments, with exact quality and
// allocation counts and an outside-in per-layer trace. See
// bench/README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// contractLine is the last line of standard output: the object the
// benchmark driver reads.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("embench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run (see -list)")
		all      = fs.Bool("all", false, "run all four workloads, one after the other")
		list     = fs.Bool("list", false, "print every workload and metric with unit, direction and bound")
		seed     = fs.Int64("seed", 41, "row order of both tables, and so request order and batch composition")
		dataSeed = fs.Int64("data-seed", 41, "record content (umetrics.Generate seed); change it for a hold-out check")
		seconds  = fs.Int("seconds", nominalSeconds, "scales the fixed work list; the run takes about this long on the reference box")
		trace    = fs.Int("trace", 0, "1 = also run the traced pass and print the per-layer metrics")
		outDir   = fs.String("out", "bench/out", "directory for trace-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	var names []string
	switch {
	case *all:
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	case *name != "":
		if _, ok := workloadByName(*name); !ok {
			fmt.Fprintf(stderr, "embench: unknown workload %q (see -list)\n", *name)
			return 2
		}
		names = []string{*name}
	default:
		fmt.Fprintln(stderr, "embench: need -workload NAME, -all or -list")
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "embench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, n := range names {
		// A traced run does not report setup_s and sets up once.
		setupReps := 1
		if w, _ := workloadByName(n); *trace == 0 {
			setupReps = w.SetupReps
		}
		rep, err := run(ctx, runConfig{
			workload: n, seed: *seed, dataSeed: *dataSeed, seconds: *seconds, trace: *trace == 1,
			sizes: paperSizes, setupReps: setupReps, outDir: *outDir,
		})
		if err != nil {
			fmt.Fprintf(stderr, "embench: %s: %v\n", n, err)
			return 1
		}
		if !rep.Correct {
			code = 1
			for _, f := range rep.Failures {
				fmt.Fprintf(stderr, "embench: %s: FAILED %s\n", n, f)
			}
		}
		if err := emit(stdout, rep); err != nil {
			fmt.Fprintf(stderr, "embench: %v\n", err)
			return 1
		}
	}
	return code
}

// emit prints the full report on one line, then the driver's line: the
// end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func emit(w io.Writer, rep *report) error {
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	line := contractLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, rep.EndToEnd
	if rep.Traced {
		defs, values = perLayer, rep.PerLayer
	}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}
