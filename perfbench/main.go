// Command perfbench is the repository benchmark: it drives the KNN
// engine, the network state store, the HTTP serving tier, the load
// generator and the phase-3 planner through the same entry points
// knnrun, knnserve, knnload and table1 use, checks every output, and
// prints one JSON result line.
//
// Usage (from the repository root; run.sh builds and execs this):
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the JSON line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics and the run also writes
// its spans to .bench_build/spans/<workload>-seed<n>.json. The
// workload "all" runs every workload untraced and then traced in this
// one process, prints every metric with its unit and sample count,
// cross-checks the iterate-host and iterate-hdd graph digests, and
// reports the tracing overhead per workload.
//
// The process exits non-zero when any output check fails.
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

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// serveRate overrides serve-netstore's arrival rate, for placing
	// it against the knee; 0 keeps serveRate.
	serveRate float64
	// dir is the checkout-local working directory for engine scratch
	// files and span output.
	dir string
}

// workload is one named input set.
type workload struct {
	name string
	run  func(cfg config, tr *tracer) (*result, error)
	// gated workloads are the ones BENCHMARK.json lists. The two
	// CPU-bound ones run by name and in "all" but are not gated: on a
	// shared 2-vCPU host their medians move by 35-65% between runs
	// minutes apart, past the largest bound a metric may have.
	gated bool
}

var workloads = []workload{
	{"iterate-host", runIterateHost, false},
	{"iterate-hdd", runIterateHDD, true},
	{"serve-netstore", runServeNetstore, true},
	{"plan-table1", runPlanTable1, false},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", `workload name, or "all"`)
	seed := fs.Int64("seed", defaultSeed, "input seed (the default reproduces the Table 1 presets and knnrun -seed 1)")
	seconds := fs.Float64("seconds", 10, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics; 0 prints end-to-end metrics")
	rate := fs.Float64("rate", 0, "serve-netstore arrival rate in ops/s, for knee sweeps (0 = the benchmark's rate)")
	dir := fs.String("dir", ".bench_build", "working directory for scratch files and span output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	abs, err := filepath.Abs(*dir)
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, serveRate: *rate, dir: abs}
	if *name == "all" {
		return runAll(cfg, out)
	}
	for _, w := range workloads {
		if w.name == *name {
			res, err := runOne(w, cfg)
			if err != nil {
				return err
			}
			res.writeTable(out, w.name)
			if err := writeJSON(out, res, cfg.trace); err != nil {
				return err
			}
			if !res.correct() {
				return fmt.Errorf("%s: %d output checks failed", w.name, len(res.failures))
			}
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q", *name)
}

// runOne runs one workload with a fresh tracer and, when tracing,
// writes the spans and their per-module self times.
func runOne(w workload, cfg config) (*result, error) {
	scratch, err := os.MkdirTemp(mkdir(cfg.dir, "tmp"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	tr := newTracer(cfg.trace)
	run := cfg
	run.dir = scratch
	res, err := w.run(run, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if cfg.trace {
		for _, m := range selfTimeModules {
			res.set(m+".self_s", tr.selfTime()[m], 1)
		}
		path := filepath.Join(mkdir(cfg.dir, "spans"), fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
		if err := tr.writeFile(path, w.name, cfg.seed); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, fmt.Sprintf("spans: %d written to %s", tr.len(), path))
	}
	return res, nil
}

// mkdir creates dir/sub if needed and returns it; a failure surfaces
// at the first file operation inside it.
func mkdir(dir, sub string) string {
	p := filepath.Join(dir, sub)
	_ = os.MkdirAll(p, 0o755) // checked by the create that follows
	return p
}

// runAll runs every workload untraced, then traced, in this process.
func runAll(cfg config, out io.Writer) error {
	var untraced, traced []*result
	for _, trace := range []bool{false, true} {
		for _, w := range workloads {
			resetPeakRSS()
			c := cfg
			c.trace = trace
			res, err := runOne(w, c)
			if err != nil {
				return err
			}
			res.writeTable(out, w.name)
			if trace {
				traced = append(traced, res)
			} else {
				untraced = append(untraced, res)
			}
		}
	}
	var failed []string
	for i, w := range workloads {
		for _, f := range append(untraced[i].failures, traced[i].failures...) {
			failed = append(failed, w.name+": "+f)
		}
	}
	digests := make(map[string]string)
	for i, w := range workloads {
		digests[w.name] = untraced[i].digest
	}
	host, hdd := digests["iterate-host"], digests["iterate-hdd"]
	fmt.Fprintf(out, "\ngraph digest after %d iterations: iterate-host %s, iterate-hdd %s\n", digestIters, host, hdd)
	if host != hdd {
		failed = append(failed, "iterate-host and iterate-hdd graph digests differ")
	}
	writeResultTable(out, untraced)
	writeOverhead(out, untraced, traced)
	if len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintln(out, "FAILED:", f)
		}
		return errors.New("output checks failed")
	}
	fmt.Fprintln(out, "all output checks passed")
	return nil
}

// writeJSON prints the result line: end-to-end metrics untraced,
// per-layer metrics traced.
func writeJSON(out io.Writer, res *result, trace bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{res.values[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// window runs step back to back until seconds have elapsed, at least
// minSteps times, and returns the elapsed wall time.
func window(seconds float64, minSteps int, step func() error) (time.Duration, error) {
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	for n := 0; n < minSteps || time.Since(start) < limit; n++ {
		if err := step(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
