// Command perfbench is the repository's serving benchmark. It builds a
// bench-sized MoE server in process, drives one named workload against
// it for a fixed time, checks a fixed sample of outputs against the
// sequential reference engine, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports per-layer metrics, timed around calls into
// each layer's public functions, and the tracing overhead.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload offline-decode --seed 1 --seconds 45 --trace 0
//
// The command exits 1, after printing the result, when a sampled output
// differs from the reference or a serving invariant breaks, and exits 2
// without a result on a set-up error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// resultsDir holds each run's metrics, host diagnostics and spans,
// relative to the directory the benchmark runs from.
const resultsDir = ".bench_build/results"

// procs is the GOMAXPROCS every run uses: one process generates and
// serves the load on two processors, so hosts with more cores measure
// the same thing.
const procs = 2

func main() {
	name := flag.String("workload", "", "workload to run: offline-decode or offline-prefill")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Int("seconds", 45, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}

// output is the final result line.
type output struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the file written beside the metrics.
type record struct {
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    int        `json:"seconds"`
	Trace      int        `json:"trace"`
	Metrics    []metric   `json:"metrics"`
	Notes      []string   `json:"notes"`
	Host       hostReport `json:"host"`
	Mismatched []int      `json:"mismatched_ids"`
	Broken     []string   `json:"broken"`
	Result     output     `json:"result"`
}

func run(name string, seed int64, seconds, trace int) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), procs))

	h0, t0 := snapHost(), time.Now()
	budget := time.Duration(seconds) * time.Second
	var res *runResult
	var spans []span
	if trace == 1 {
		res, spans, err = runTraced(w, seed, budget)
	} else {
		res, err = runEndToEnd(w, seed, budget)
	}
	if err != nil {
		return err
	}
	bad, err := checkSamples(w.server, res.samples)
	if err != nil {
		return err
	}
	host := newHostReport(h0, snapHost(), time.Since(t0))

	failed := min(res.failed+len(bad), res.attempted)
	for i := range res.metrics {
		if res.metrics[i].Name == "success_ratio" {
			res.metrics[i].Value = ratio(float64(res.attempted-failed), float64(res.attempted))
		}
	}
	out := output{
		Correct:   len(bad) == 0 && len(res.broken) == 0 && failed == 0,
		Attempted: res.attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricJSON, len(res.metrics)),
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", m.Name)
		}
		out.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
		fmt.Printf("%-28s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	fmt.Printf("check: %d/%d sampled outputs match the reference\n", len(res.samples)-len(bad), len(res.samples))
	for _, b := range res.broken {
		fmt.Println("broken:", b)
	}
	fmt.Printf("host: steal %.2f%%, process cpu %.2fs over %.2fs wall, GOMAXPROCS %d of %d cpus, %s, %s\n",
		100*host.StealShare, host.ProcessCPU, host.Wall, host.GOMAXPROCS, host.NumCPU, host.CPUModel, host.GoVersion)

	base := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, seed, trace))
	rec := record{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: res.metrics,
		Notes: res.notes, Host: host, Mismatched: bad, Broken: res.broken, Result: out}
	if err := writeJSON(base+".json", rec); err != nil {
		return err
	}
	if spans != nil {
		if err := writeJSON(base+"-spans.json", spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
