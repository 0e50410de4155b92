// Command perfbench is the repository benchmark: one program that runs a
// named workload on the reproduction's public entry points, checks its
// outputs, and prints every metric by name with its unit. BENCHMARK.json at
// the repository root names the workloads and metrics; README.md in this
// directory defines each of them.
//
//	bash perfbench/run.sh --workload zoo --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, measured with tracing off; with --trace 1 the run records
// spans around every call it makes into the program and reports the
// per-layer metrics instead, writing the spans under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs are pinned in expected/.
const defaultSeed = 1

// recordDir, under the build directory run.sh keeps, holds the result
// record and spans of every run.
const recordDir = ".bench_build/perfbench"

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	// tiny shrinks every workload to a smoke size; only the self-check
	// sets it.
	tiny bool
	// pin, when set, is where the default seed's rows are written instead
	// of being checked against expected/.
	pin string
	// rec is non-nil in a traced run.
	rec *recorder
}

// outcome is a workload's result before printing.
type outcome struct {
	attempted, failed int64
	// problems lists every failed output check; correct means none.
	problems []string
	metrics  map[string]float64
	// gomaxprocs is the GOMAXPROCS the workload ran at, when it set its
	// own; 0 means the process default.
	gomaxprocs int
}

func (o *outcome) set(name string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]float64)
	}
	o.metrics[name] = v
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs.
type workload struct {
	name string
	// failure defines what counts as a failed operation on this workload.
	failure string
	run     func(cfg config) *outcome
}

var workloads = []workload{
	{
		name:    "zoo",
		failure: "a cell whose call errors or whose deterministic row differs from its other runs on the same seed or from the pinned row counts all its queries as failed",
		run:     runZoo,
	},
	{
		name:    "chord-scale-sh2",
		failure: "every simulated Put and Get of a call whose row differs from another call's or from the pinned row (a Get that misses its value is the simulation's pinned outcome, reported as query.no_peer_frac)",
		run:     runScale,
	},
	{
		name:    "live-udp",
		failure: "a callback with !OK, a Get whose value is not the client's last Put, a sweep that did not probe every member, or no answer within the op deadline",
		run:     runLive,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult keeps exactly the metrics of the asked-for kind, each with its
// unit, and records a problem for any the workload did not produce.
func buildResult(o *outcome, traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	res := result{Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok {
			o.problem("metric %s was not measured", d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = len(o.problems) == 0
	return res
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, "input seed")
	secs := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	pin := flag.String("pin", "", "write the default seed's rows to this directory instead of checking them")
	flag.Parse()

	w, ok := findWorkload(*workloadName)
	if !ok || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *secs, pin: *pin}
	if *trace == 1 {
		cfg.rec = newRecorder()
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d; failure = %s\n", w.name, *seed, *secs, *trace, w.failure)

	o := w.run(cfg)
	stamp := machineStamp()
	if o.gomaxprocs != 0 {
		stamp["gomaxprocs"] = o.gomaxprocs
	}
	stampJSON, _ := json.Marshal(stamp)
	fmt.Printf("machine %s\n", stampJSON)
	res := buildResult(o, *trace == 1)
	for _, p := range o.problems {
		fmt.Printf("check failed: %s\n", p)
	}
	if err := writeRecord(recordDir, w.name, *seed, *trace, stamp, res, cfg.rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// writeRecord stores the result with its machine stamp and, for a traced
// run, every span, so a run can be compared with later ones.
func writeRecord(dir, name string, seed int64, trace int, stamp map[string]any, res result, rec *recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec2 := map[string]any{
		"workload": name, "seed": seed, "trace": trace,
		"machine": stamp, "result": res,
	}
	if rec != nil {
		rec2["spans"] = rec.export()
	}
	b, err := json.MarshalIndent(rec2, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace))
	return os.WriteFile(path, b, 0o644)
}

// machineStamp records what the numbers were measured on.
func machineStamp() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"tree":       sourceTreeHash(),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}
