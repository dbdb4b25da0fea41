// Command refbench is the repository's reference benchmark. It runs one
// named workload against the xquec packages for a fixed time, checks
// every output against an independent oracle, and prints each metric by
// name with its unit and sample count, then one JSON summary line.
//
//	bash refbench/run.sh --workload xmark-analytic --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the summary carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of a
// traced run. README.md beside this file describes the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // checkout root: BENCHMARK.json and .bench_build live here
}

func (c config) tmpDir() string { return filepath.Join(c.root, ".bench_build", "tmp") }

func (c config) spanPath() string {
	return filepath.Join(c.root, ".bench_build", "trace", c.workload+".spans.csv")
}

// metric is one reported figure.
type metric struct {
	value float64
	unit  string
	n     int    // samples behind the figure; 0 when it is not sampled
	note  string // how it was taken
}

// outcome is what a workload run produces.
type outcome struct {
	metrics   map[string]metric
	attempted int64
	failed    int64
	mismatch  []string // oracle-rejected output keys
	lines     []string // extra report lines
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

// set records a metric. A NaN value — a figure with no samples behind
// it — is left out.
func (o *outcome) set(name, unit string, v float64, n int, note string) {
	if math.IsNaN(v) {
		return
	}
	o.metrics[name] = metric{value: v, unit: unit, n: n, note: note}
}

func (o *outcome) linef(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// workloads maps each workload name in BENCHMARK.json to its runner.
var workloads = map[string]func(config) (*outcome, error){
	"xmark-analytic": runAnalytic,
	"serve-lookup":   runServe,
	"append-read":    runAppendRead,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "xmark-analytic", "workload name (see BENCHMARK.json)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the generated documents and the request mix")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed loop")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root holding BENCHMARK.json")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "refbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	spec, err := loadSpec(filepath.Join(cfg.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.tmpDir(), 0o755); err != nil {
		return err
	}
	out, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	summary, err := summarize(cfg, spec, out)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	names := make([]string, 0, len(out.metrics))
	for name := range out.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.metrics[name]
		line := fmt.Sprintf("metric %-40s %14.6g %-6s", name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	for _, key := range out.mismatch {
		fmt.Println("mismatch", key)
	}
	fmt.Printf("checks attempted=%d failed=%d failed_frac=%g\n", out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	line, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// jsonMetric and jsonSummary are the shape of the final output line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonSummary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summarize builds the JSON line: every end-to-end metric of spec
// without tracing, every per-layer metric with it. An end-to-end metric
// the workload did not produce is an error; a per-layer metric of a
// layer the workload does not exercise reads 0.
func summarize(cfg config, spec *benchSpec, out *outcome) (*jsonSummary, error) {
	s := &jsonSummary{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]jsonMetric{},
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("no operation completed")
	}
	list := spec.EndToEnd
	if cfg.trace {
		list = spec.PerLayer
	}
	for _, sm := range list {
		m, ok := out.metrics[sm.Name]
		if !ok {
			if !cfg.trace {
				return nil, fmt.Errorf("workload did not produce end-to-end metric %s", sm.Name)
			}
			m = metric{value: 0, unit: sm.Unit}
			out.metrics[sm.Name] = metric{value: 0, unit: sm.Unit, note: "(layer not exercised or not observable on this workload)"}
		}
		if m.unit != sm.Unit {
			return nil, fmt.Errorf("metric %s: unit %q, BENCHMARK.json says %q", sm.Name, m.unit, sm.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s is not a finite number", sm.Name)
		}
		s.Metrics[sm.Name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return s, nil
}

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
