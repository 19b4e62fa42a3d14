package main

import (
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"text/tabwriter"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names and units; TestRegistryMatchesBenchmarkJSON keeps them equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the numbers a user of the system sees, printed with
// --trace 0. Each one is measured on every workload: a batch step is
// one Iterate call on the engine workloads and one 18-cell Table 1
// sweep on plan-table1.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"iter_s", "s"},
	{"work_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are printed with --trace 1. The unprefixed names are the
// workload-specific end-to-end results (serving latency, freshness,
// recall, the planner sweep); the rest are named module.metric.
var perLayer = concatDefs(
	[]metricDef{
		{"plan_s", "s"},
		{"scored_per_s", "tuples/s"},
		{"recall", "ratio"},
		{"read_p50_ms", "ms"},
		{"read_p99_ms", "ms"},
		{"write_p50_ms", "ms"},
		{"write_p99_ms", "ms"},
		{"fail_frac", "ratio"},
		{"goodput_ops_s", "ops/s"},
		{"fresh_p50_ms", "ms"},
		{"fresh_p90_ms", "ms"},

		{"core.iter_cpu_s", "s"},
		{"core.iter_outside_phases_ms", "ms"},
		{"core.passes", "count"},
		{"core.iters", "count"},

		{"partition.p1_ms", "ms"},
		{"partition.objective", "count"},

		{"tuples.p2_ms", "ms"},
		{"tuples.added", "count"},
		{"tuples.scored", "count"},
		{"tuples.dedup_ratio", "ratio"},

		{"pigraph.p3_ms", "ms"},
		{"pigraph.pi_edges", "count"},
		{"pigraph.ops", "count"},
		{"pigraph.ops_predicted", "count"},
		{"pigraph.plan_ms", "ms"},
		{"pigraph.simulate_ms", "ms"},
		{"pigraph.table1_ops", "count"},

		{"knn.p4_ms", "ms"},
		{"knn.prefetched_loads", "count"},
		{"knn.async_unloads", "count"},
		{"knn.prefetched_shard_mb", "MiB"},
		{"knn.edge_changes", "count"},

		{"profile.p5_ms", "ms"},
		{"profile.updates_applied", "count"},

		{"disk.read_mb", "MiB"},
		{"disk.write_mb", "MiB"},
		{"disk.seeks", "count"},
	},
	deviceDefs(),
	[]metricDef{
		{"netstore.replica_pulls", "count"},
		{"netstore.replica_degraded", "count"},
		{"netstore.lookup_p50_ms", "ms"},
		{"netstore.lookup_p99_ms", "ms"},

		{"serve.handler_read_p50_ms", "ms"},
		{"serve.handler_read_p99_ms", "ms"},
		{"serve.handler_write_p50_ms", "ms"},
		{"serve.handler_write_p90_ms", "ms"},
		{"serve.fallbacks", "count"},
		{"serve.shed", "count"},

		{"delta.apply_p50_ms", "ms"},
		{"delta.apply_max_ms", "ms"},
		{"delta.adds", "count"},
		{"delta.deletes", "count"},
		{"delta.held", "count"},
		{"delta.sim_evals", "count"},
		{"delta.republished", "count"},

		{"load.sent", "count"},
		{"load.ok", "count"},
		{"load.misses", "count"},
		{"load.errors.timeout", "count"},
		{"load.errors.refused", "count"},
		{"load.errors.shed", "count"},
		{"load.errors.protocol", "count"},
		{"load.lag_p99_ms", "ms"},
	},
	selfTimeDefs(),
)

// devices are the emulated spindles a run can have: the engine's
// local one, the two store shards and their two read replicas.
var devices = []string{"spindle", "shard0", "shard1", "replica0", "replica1"}

func deviceDefs() []metricDef {
	var defs []metricDef
	for _, d := range devices {
		defs = append(defs,
			metricDef{"disk." + d + ".modeled_ms", "ms"},
			metricDef{"disk." + d + ".slept_ms", "ms"},
			metricDef{"disk." + d + ".busy_frac", "ratio"})
	}
	return defs
}

// selfTimeModules are the modules the benchmark records spans for.
var selfTimeModules = []string{
	"dataset", "core", "partition", "tuples", "pigraph", "knn",
	"profile", "delta", "netstore", "serve", "load",
}

func selfTimeDefs() []metricDef {
	defs := make([]metricDef, len(selfTimeModules))
	for i, m := range selfTimeModules {
		defs[i] = metricDef{m + ".self_s", "s"}
	}
	return defs
}

func concatDefs(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// unitOf looks a metric's unit up in the registry.
func unitOf(name string) string {
	for _, d := range concatDefs(endToEnd, perLayer) {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// result is one workload run: its metrics with sample counts, the
// operation tally and every failed output check.
type result struct {
	values    map[string]float64
	counts    map[string]int
	order     []string
	attempted int
	failed    int
	failures  []string
	notes     []string
	// digest identifies the engine graph after digestIters
	// iterations (engine workloads only).
	digest string
}

func newResult() *result {
	return &result{values: map[string]float64{}, counts: map[string]int{}}
}

// set records a metric measured over n samples.
func (r *result) set(name string, v float64, n int) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = v
	r.counts[name] = n
}

// setPercentile records the q-quantile of xs only when at least
// minBeyond samples lie above it; otherwise it notes why the metric
// is missing and leaves it at 0.
func (r *result) setPercentile(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		r.notes = append(r.notes, fmt.Sprintf("%s not reported: %d samples leave fewer than %d above the %g quantile", name, len(xs), minBeyond, q))
		return
	}
	r.set(name, v, len(xs))
}

// check records a failed output check.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return len(r.failures) == 0 }

// writeTable prints every recorded metric with its unit and sample
// count, then notes and failed checks.
func (r *result) writeTable(out io.Writer, workload string) {
	fmt.Fprintf(out, "== %s: %d ops attempted, %d failed\n", workload, r.attempted, r.failed)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	for _, name := range r.order {
		fmt.Fprintf(w, "%s\t%s\t%s\tn=%d\n", name, fmtValue(r.values[name]), unitOf(name), r.counts[name])
	}
	w.Flush()
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "CHECK FAILED:", f)
	}
}

func fmtValue(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// resultMetrics are the end-to-end results, by the names the benchmark's
// README defines them, in the order the all-workloads table prints.
var resultMetrics = []string{
	"setup_s", "iter_s", "scored_per_s", "recall", "peak_rss_mb", "plan_s",
	"read_p50_ms", "read_p99_ms", "write_p50_ms", "write_p99_ms",
	"fail_frac", "goodput_ops_s", "fresh_p50_ms", "fresh_p90_ms",
}

// writeResultTable prints the end-to-end results of every workload,
// one row per metric, "-" where a workload does not measure it.
func writeResultTable(out io.Writer, results []*result) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "\nmetric\tunit")
	for _, wl := range workloads {
		fmt.Fprintf(w, "\t%s", wl.name)
	}
	fmt.Fprintln(w)
	for _, name := range resultMetrics {
		fmt.Fprintf(w, "%s\t%s", name, unitOf(name))
		for _, r := range results {
			if _, ok := r.values[name]; !ok {
				fmt.Fprint(w, "\t-")
				continue
			}
			fmt.Fprintf(w, "\t%s (n=%d)", fmtValue(r.values[name]), r.counts[name])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
}

// writeOverhead prints traced minus untraced end-to-end results.
func writeOverhead(out io.Writer, untraced, traced []*result) {
	fmt.Fprintln(out, "\ntracing overhead (traced - untraced):")
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	for i, wl := range workloads {
		var parts []string
		for _, d := range endToEnd {
			u, t := untraced[i].values[d.name], traced[i].values[d.name]
			rel := 0.0
			if u != 0 {
				rel = 100 * (t - u) / u
			}
			parts = append(parts, fmt.Sprintf("%s %+.4g %s (%+.1f%%)", d.name, t-u, d.unit, rel))
		}
		fmt.Fprintf(w, "%s\t%s\n", wl.name, strings.Join(parts, "\t"))
	}
	w.Flush()
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS returns freed heap to the OS and restarts VmHWM, so each
// workload of an all-workloads run reports its own peak. Best effort:
// without it the peak is the process's so far, which only overstates.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
