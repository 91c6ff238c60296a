// Command bench is the location service's benchmark: one command that
// deploys the real server hierarchy, drives four city-scale workloads,
// checks the answers and prints every end-to-end and per-layer metric by
// name. README.md describes the workloads, metrics and run shape;
// ../BENCHMARK.json holds the regression bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"

	"locsvc/bench/gen"
	"locsvc/bench/rig"
	"locsvc/bench/tracenet"
)

// spanFileCap bounds the spans written per workload; the metrics use all
// spans, the file keeps the first ones.
const spanFileCap = 250_000

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	check    bool
	repeat   int
	jsonOut  string
	outDir   string
}

// run is one pass over one workload, as printed and as written to -json.
type run struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Traced    bool                  `json:"traced"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Causes    map[string]int        `json:"causes,omitempty"`
	Metrics   map[string]metricJSON `json:"metrics"`
	order     []rig.Metric
	notes     []string
	examples  []string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace string
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "generator seed: the only source of randomness")
	flag.Float64Var(&o.seconds, "seconds", 16, "measuring time per pass, split over the phases")
	flag.StringVar(&trace, "trace", "0", "0: end-to-end pass; 1: traced pass with the per-layer metrics")
	flag.BoolVar(&o.check, "check", true, "compare answers with the generator's ground truth")
	flag.IntVar(&o.repeat, "repeat", 1, "run the set this many times and compare the end-to-end metrics with the bounds in BENCHMARK.json")
	flag.StringVar(&o.jsonOut, "json", "", "also write every run's result to this file")
	flag.StringVar(&o.outDir, "out", "", "directory for span files and scratch data (default: the benchmark's out/)")
	flag.Parse()
	t, err := strconv.ParseBool(trace)
	if err != nil || flag.NArg() > 0 || o.repeat < 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-check=false] [-repeat n] [-json file]")
		os.Exit(2)
	}
	o.trace = t
	if o.outDir == "" {
		o.outDir = "out"
		if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
			o.outDir = filepath.Join("bench", "out")
		}
	}
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(o options) error {
	specs := gen.Workloads()
	if o.workload != "" {
		s, err := gen.Lookup(o.workload)
		if err != nil {
			return err
		}
		specs = []gen.Spec{s}
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	var all []run
	incorrect := false
	for rep := 0; rep < o.repeat; rep++ {
		for _, spec := range specs {
			r, err := runOne(o, spec)
			if err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
			printRun(r, o)
			all = append(all, r)
			incorrect = incorrect || !r.Correct
		}
	}
	if o.jsonOut != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	var cmpErr error
	if o.repeat > 1 {
		cmpErr = compareRepeats(all, len(specs))
	}
	if len(specs) == 1 && o.repeat == 1 {
		// The driver's contract: the result is the last line of stdout.
		r := all[0]
		line, err := json.Marshal(struct {
			Correct   bool                  `json:"correct"`
			Attempted int                   `json:"attempted"`
			Failed    int                   `json:"failed"`
			Metrics   map[string]metricJSON `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if incorrect {
		return errors.New("answer checks failed")
	}
	return cmpErr
}

// runOne runs one pass (end-to-end or traced) over one workload.
func runOne(o options, spec gen.Spec) (run, error) {
	// Start the pass with the previous workload's memory returned and the
	// resident-set high-water mark reset, so peak_rss_mb is this pass's.
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // not fatal: a lone workload needs no reset
	g := gen.New(spec, o.seed)
	streams := make([]*gen.Stream, gen.Streams)
	for i := range streams {
		streams[i] = g.Stream(i)
	}
	scratch := filepath.Join(o.outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(scratch)
	cfg := spec.Deploy
	cfg.SkipChecks = !o.check
	var res rig.Result
	var err error
	if o.trace {
		res, err = rig.Layers(cfg, g.Initial(), streams, scratch, o.seconds)
	} else {
		res, err = rig.EndToEnd(cfg, g.Initial(), streams, scratch, o.seconds)
		if err == nil {
			res.Metrics = append(res.Metrics, rig.Metric{Name: "peak_rss_mb", Unit: "MB", Value: peakRSSMB()})
		}
	}
	if err != nil {
		return run{}, err
	}
	if res.Spans != nil {
		path := filepath.Join(o.outDir, spec.Name+".spans.jsonl")
		if err := tracenet.WriteJSONL(path, res.Spans, spanFileCap); err != nil {
			return run{}, err
		}
		res.Notes = append(res.Notes, "spans written to "+path)
	}
	r := run{
		Workload: spec.Name, Seed: o.seed, Traced: o.trace,
		Attempted: res.Attempted, Failed: res.Failed, Causes: res.Causes,
		Metrics: make(map[string]metricJSON, len(res.Metrics)),
		order:   res.Metrics, notes: res.Notes, examples: res.Examples,
	}
	for _, m := range res.Metrics {
		r.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	// Errors and timeouts count as failed ops; a wrong or missing answer
	// additionally makes the run incorrect.
	r.Correct = true
	for cause, n := range res.Causes {
		if n > 0 && cause != "error" && cause != "timeout" {
			r.Correct = false
		}
	}
	return r, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

func printRun(r run, o options) {
	pass := "end to end"
	if r.Traced {
		pass = "per layer (traced pass)"
	}
	fmt.Printf("== %s, seed %d, %.0f s: %s\n", r.Workload, r.Seed, o.seconds, pass)
	for _, m := range r.order {
		line := fmt.Sprintf("  %-36s %14.6g %s", m.Name, m.Value, m.Unit)
		if !strings.Contains(m.Name, ".") && (strings.HasSuffix(m.Name, "_p50_ms") || strings.HasSuffix(m.Name, "_p99_ms")) {
			line += fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Println(line)
	}
	fmt.Printf("  ops attempted %d, failed %d, fail_ratio %.6f, checks %s\n", r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)), map[bool]string{true: "passed", false: "FAILED"}[r.Correct])
	causes := make([]string, 0, len(r.Causes))
	for c, n := range r.Causes {
		if n > 0 {
			causes = append(causes, fmt.Sprintf("%s=%d", c, n))
		}
	}
	sort.Strings(causes)
	if len(causes) > 0 {
		fmt.Printf("  failures: %s\n", strings.Join(causes, " "))
	}
	for _, e := range r.examples {
		fmt.Printf("    e.g. %s\n", e)
	}
	for _, n := range r.notes {
		fmt.Printf("  note: %s\n", n)
	}
}

// benchmarkFile is the part of BENCHMARK.json the repeat comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareRepeats prints, per workload and end-to-end metric, every
// repeat's value, the worst relative difference from the first repeat and
// the metric's bound; it fails when a difference exceeds its bound.
func compareRepeats(all []run, perSet int) error {
	var bf benchmarkFile
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if err := json.Unmarshal(data, &bf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		break
	}
	if len(bf.EndToEnd) == 0 {
		return errors.New("no BENCHMARK.json with end_to_end metrics found beside the benchmark")
	}
	fmt.Printf("== repeat comparison (bounds from BENCHMARK.json)\n")
	exceeded := 0
	for w := 0; w < perSet; w++ {
		for _, m := range bf.EndToEnd {
			first, ok := all[w].Metrics[m.Name]
			if !ok {
				continue
			}
			var vals []string
			worst := 0.0
			for k := w; k < len(all); k += perSet {
				v := all[k].Metrics[m.Name].Value
				vals = append(vals, fmt.Sprintf("%.6g", v))
				diff := (v - first.Value) / first.Value
				if m.Better == "higher" {
					diff = -diff
				}
				if diff > worst {
					worst = diff
				}
			}
			verdict := "ok"
			if worst > m.Bound {
				verdict = "EXCEEDED"
				exceeded++
			}
			fmt.Printf("  %-16s %-14s %s %s  worse by %.1f%%, bound %.0f%%: %s\n",
				all[w].Workload, m.Name, strings.Join(vals, " -> "), first.Unit, 100*worst, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between repeats by more than their bound", exceeded)
	}
	return nil
}
