// Command perfbench is the repository's benchmark. It measures the
// simulator, the model checker and the sweep service from outside the
// program: it times its own calls into each layer's public functions,
// reads the counters the program already reports, and, in a traced run,
// buckets a runtime/pprof CPU profile by package.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sim-apps --seed 1 --seconds 20 --trace 0
//
// Workloads (see workloads.go for why each was chosen):
//
//	sim-apps  Fig. 2 no-sync apps under GD and DD plus seeded BFS/PR/SSSP
//	sim-sync  sync microbenchmarks and 2-device ports
//	check     source-DPOR over catalog cells plus seeded generated programs
//	service   in-process sweepd coordinator, result cache and pull workers
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 it holds every
// per-layer metric instead. Earlier lines are a provenance record
// (nproc, GOMAXPROCS, Go version, CPU model) and a table of the
// workload-specific figures. A run whose outputs fail the correctness
// gate reports "correct": false; usage or set-up errors exit non-zero
// without a result line.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// speed claim must also hold on it.
const heldOutSeed = 20261017

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	root     string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 20, "measurement time in seconds")
		trace   = fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
		workdir = fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for caches, spans and results")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload one of %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opts := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, root: root}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	prov := provenance(opts)
	if err := printJSONLine(stdout, map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	res, err := w.run(opts, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: FAIL:", f)
	}
	if opts.trace {
		if err := tr.writeSpans(filepath.Join(opts.workdir, fmt.Sprintf("spans-%s-seed%d.json", opts.workload, opts.seed))); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	for _, l := range res.info {
		fmt.Fprintf(stdout, "%-28s %14.6g %-8s %s\n", l.name, l.value, l.unit, l.note)
	}

	specs := endToEnd
	if opts.trace {
		specs = perLayer
	}
	line, err := resultLine(res, specs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	record := map[string]any{"provenance": prov, "result": line, "cells": res.cells}
	if err := writeJSONFile(filepath.Join(opts.workdir, fmt.Sprintf("result-%s-seed%d-trace%d.json", opts.workload, opts.seed, *trace)), record); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing result:", err)
		return 1
	}
	if err := printJSONLine(stdout, line); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is what one workload run measured.
type result struct {
	attempted int
	failures  []string
	metrics   map[string]float64
	info      []infoLine
	cells     []cellDetail // written to the result file only
}

// cellDetail is one cell's samples, for the result file.
type cellDetail struct {
	Cell    string    `json:"cell"`
	WallS   []float64 `json:"wall_s"`
	NormS   []float64 `json:"norm_s"`
	Work    float64   `json:"work"`
	Modeled float64   `json:"modeled"`
}

// fail records one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// infoLine is a workload-specific figure printed for people, outside
// the gated result line.
type infoLine struct {
	name  string
	value float64
	unit  string
	note  string
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the last line of standard output.
type resultJSON struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine builds the result line holding exactly the metrics in
// specs; a metric the workload did not set is an error, so the line
// can never silently drop one.
func resultLine(res *result, specs []metricSpec) (resultJSON, error) {
	if res.attempted < 1 {
		return resultJSON{}, errors.New("no operation attempted")
	}
	out := resultJSON{
		Correct:   len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    len(res.failures),
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			return resultJSON{}, fmt.Errorf("metric %s was not measured", s.name)
		}
		out.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, nil
}

func printJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// since returns the seconds elapsed from t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
