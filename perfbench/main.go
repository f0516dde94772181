// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, drives them through the program's public
// entry points (scenario.Load/Run, the arpscenario path, and
// replay.New/Engine.Run, the arpanalyze path) for a fixed wall time, checks
// every operation's output, and prints the end-to-end metrics — or, with
// --trace 1, the per-layer metrics — ending with one JSON result line.
//
//	bash perfbench/run.sh --workload lan-mix --seed 1 --seconds 25 --trace 0
//
// README.md in this directory lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// unit pairs a metric's value with its unit in the result line.
type unit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]unit `json:"metrics"`

	digest string             // folds every input's first result
	counts map[string]float64 // the per-layer metrics read from telemetry
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: lan-mix | cam-flood | campus | replay")
	seed := fs.Int64("seed", 1, "input generator seed")
	seconds := fs.Float64("seconds", 25, "wall seconds of measured operations")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, minOps: defaultMinOps}
	var res *result
	var err error
	switch *traced {
	case 0:
		res, err = endToEndRun(cfg, out)
	case 1:
		res, err = tracedRun(cfg, filepath.Join(".bench_build", "perfbench", "spans-"+w.name+".json"), out)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// report prints each metric on its own line, sorted by name.
func report(out io.Writer, metrics map[string]unit, samples map[string]int) {
	for _, k := range sortedKeys(metrics) {
		m := metrics[k]
		fmt.Fprintf(out, "%-32s %14.6g %-8s (n=%d)\n", k, m.Value, m.Unit, samples[k])
	}
}

// median returns the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
