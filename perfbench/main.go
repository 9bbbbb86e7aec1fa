// Command perfbench is the repository's benchmark: four seeded workloads
// driven through the shipped entry points' code paths, each printing its
// end-to-end metrics (or, with --trace 1, its per-layer metrics) as one
// JSON object on the last line of standard output. README.md in this
// directory describes the workloads and metrics; run.sh builds and runs it:
//
//	bash perfbench/run.sh --workload pr-scan --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSet holds one run's reported metrics by name.
type metricSet map[string]metric

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metricSet) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// outcome is what one workload run returns: operation counts, the outcome
// of its output checks, and both metric sets (only one is printed).
type outcome struct {
	attempted, failed int64
	correct           bool
	endToEnd, layers  metricSet
	summary           string // workload-specific line printed before the JSON
}

func newOutcome() *outcome {
	return &outcome{correct: true, endToEnd: metricSet{}, layers: metricSet{}}
}

// opts are the command-line arguments every workload receives.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	work    string // private scratch directory inside the checkout
	workers int    // compute workers and server slot cap: the core count
}

type workload struct {
	name string
	run  func(o opts) (*outcome, error)
}

var workloads = []workload{
	{"pr-scan", runPRScan},
	{"bfs-update", runBFSUpdate},
	{"serve-open", runServeOpen},
	{"sim-paper", runSimPaper},
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: all, "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: graph, update stream, sources and arrivals derive from it")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have all, %s)\n", *name, workloadNames())
		return 2
	}
	for _, w := range todo {
		dir, err := os.MkdirTemp(mkdirAll(workRoot), w.name+"-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		o := opts{seed: *seed, seconds: *seconds, trace: *traced == 1, work: dir, workers: runtime.NumCPU()}
		t0 := time.Now()
		res, err := w.run(o)
		os.RemoveAll(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := printOutcome(w.name, res, o.trace, len(todo) > 1, time.Since(t0)); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// workRoot holds each run's generated graphs, inside the checkout the
// benchmark runs from; a run removes its own directory when it ends.
var workRoot = filepath.Join(".bench_build", "perfbench-work")

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// printOutcome prints the human-readable lines, then the result object.
// With --workload all every workload gets a table instead of being the
// single last line.
func printOutcome(name string, res *outcome, traced, table bool, took time.Duration) error {
	ms, err := res.endToEnd, res.endToEnd.conform(endToEndSpec, false)
	if traced {
		ms, err = res.layers, res.layers.conform(perLayerSpec, true)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s (run took %.1fs)\n", name, res.summary, took.Seconds())
	if table {
		keys := make([]string, 0, len(ms))
		for k := range ms {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("  %-32s %16s  %s\n", "metric", "value", "unit")
		for _, k := range keys {
			fmt.Printf("  %-32s %16.6g  %s\n", k, ms[k].Value, ms[k].Unit)
		}
		fmt.Printf("  attempted %d, failed %d (failed_frac %.4g), correct %v\n\n",
			res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), res.correct)
		return nil
	}
	b, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
