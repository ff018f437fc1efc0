// Command ocqabench is the repository's end-to-end benchmark. It generates
// seeded text inputs, runs the real ocqa and ocqad binaries on them, checks
// every answer against an oracle, and prints the end-to-end metrics; with
// -trace 1 it instead composes the same public calls the binaries make
// in-process, with a span around each layer, and prints the per-layer
// metrics. README.md describes the workloads, metrics and known findings.
//
// Usage (from the repository root, after building the binaries; run.sh does
// both):
//
//	ocqabench -bin DIR -workload keys-factored -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// set records a metric.
func (r *Result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]Metric{}
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// fail counts one failed operation and logs why.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	r.Correct = false
	if r.Failed <= 5 {
		fmt.Fprintf(os.Stderr, "ocqabench: FAILED: "+format+"\n", args...)
	}
}

// Env is what every workload run receives.
type Env struct {
	Bin     string        // directory holding the ocqa and ocqad binaries
	Work    string        // private scratch directory for generated inputs
	Seed    int64         // workload seed
	Seconds time.Duration // measuring time
}

// info prints a human-readable line that is not part of the JSON result.
func info(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// workloads maps each name to its untraced and traced runs.
var workloads = map[string]struct {
	run, trace func(*Env) (*Result, error)
}{
	"keys-factored": {batchRun(keysFactored), batchTrace(keysFactored)},
	"keys-sat":      {batchRun(keysSAT), batchTrace(keysSAT)},
	"pref-exact":    {batchRun(prefExact), batchTrace(prefExact)},
	"serve-mix":     {runServe, traceServe},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced in-process run printing the per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the ocqa and ocqad binaries")
		work    = flag.String("work", ".bench_build/work", "directory for generated inputs")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		var names []string
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "ocqabench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), *name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocqabench:", err)
		os.Exit(1)
	}
	env := &Env{Bin: *bin, Work: dir, Seed: *seed, Seconds: time.Duration(*seconds) * time.Second}
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	res, err := run(env)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocqabench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ocqabench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ocqabench:", err)
		os.Exit(1)
	}
	return dir
}

// writeInputs writes the named texts into dir and returns their paths.
func writeInputs(dir string, files map[string]string) (map[string]string, error) {
	paths := map[string]string{}
	for name, text := range files {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			return nil, err
		}
		paths[name] = p
	}
	return paths, nil
}
