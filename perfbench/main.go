// Command perfbench is the repository's benchmark of Cicero's live
// update path. It runs one named workload on a live backend with real
// threshold crypto, checks the converged network against a simnet
// reference, and prints every metric by name with its unit; the last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload closed-b1 --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced, traced and untraced again (for a quarter, a half and a
// quarter of the span) and reports the per-layer metrics. See README.md
// in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], ".", os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark run with the repository at root and
// returns the exit code.
func run(args []string, root string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for pairs and arrival times")
	seconds := fs.Int("seconds", 45, "measured span in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	span := time.Duration(*seconds) * time.Second
	var (
		res   result
		lines []string
		stamp envStamp
		err   error
	)
	probeBefore := hostProbe()
	if *trace == 0 {
		res, lines, stamp, err = runEndToEnd(spec, *seed, span, root)
	} else {
		res, lines, stamp, err = runLayers(spec, *seed, span, root)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	stamp.Seconds, stamp.Trace = *seconds, *trace
	stamp.HostProbe = [2]float64{probeBefore, hostProbe()}
	env, _ := json.Marshal(stamp)
	fmt.Fprintf(stdout, "env %s\n", env)
	for _, line := range lines {
		fmt.Fprintln(stdout, line)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// finite replaces an infinite or undefined value (a tail that fell on a
// failed flow) with fallback, so the result stays valid JSON.
func finite(v, fallback float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return fallback
	}
	return v
}

// runEndToEnd is the untraced run: a set-up, the measured span on it,
// and more set-ups; setup_s is the median of all of them.
func runEndToEnd(spec workloadSpec, seed int64, span time.Duration, root string) (result, []string, envStamp, error) {
	var res result
	g, err := benchTopology()
	if err != nil {
		return res, nil, envStamp{}, err
	}
	pool, err := newPairPool(g, seed)
	if err != nil {
		return res, nil, envStamp{}, err
	}
	d, lg, warm, setups, err := setUp(spec, g, pool, seed, false, 1)
	if err != nil {
		return res, nil, envStamp{}, err
	}
	defer d.close()
	stamp := stampEnv(root, spec, d.net, seed)
	p, err := runPhase(d, lg, warm, pool, g, seed, span)
	if err != nil {
		return res, nil, stamp, err
	}
	// The other set-ups come after the span. A closed deployment stays
	// reachable through its pending protocol timers until they fire (up
	// to the view-change timeout), so set-ups made before the span would
	// still hold memory while peak_rss_mb is sampled.
	d.close()
	last, _, _, later, err := setUp(spec, g, pool, seed, false, setupRepeats-1)
	if err != nil {
		return res, nil, stamp, err
	}
	last.close()
	setups = append(setups, later...)
	lat := summarizeLatency(p.latenciesMs(), p.failed())
	timeoutMs := float64(flowTimeout) / float64(time.Millisecond)
	res = result{
		Correct:   p.gate.ok() && p.failed() == 0,
		Attempted: len(p.flows),
		Failed:    p.failed(),
		Metrics: map[string]metric{
			"setup_s":           {median(setups), "s"},
			"updates_per_s":     {ratio(float64(p.applied()), p.window().Seconds()), "1/s"},
			"latency_p50_ms":    {finite(lat.p50, timeoutMs), "ms"},
			"latency_tail_ms":   {finite(lat.tail, timeoutMs), "ms"},
			"cpu_ms_per_update": {p.cpuPerUpdateMs(), "ms"},
			"peak_rss_mb":       {float64(p.peakRSS) / (1 << 20), "MB"},
		},
	}
	rssOver := fmt.Sprintf("the first %d flows (%.1fs)", rssFlows, p.rssAt.Seconds())
	if p.rssAt == 0 {
		rssOver = fmt.Sprintf("the whole span: fewer than %d flows completed in it", rssFlows)
	}
	lines := []string{
		fmt.Sprintf("setup_s runs %s", formatFloats(setups)),
		"peak_rss_mb is the peak over " + rssOver,
		fmt.Sprintf("latency_tail_ms is p%.2f of %d samples (%d beyond it, %d failed)", 100*lat.tailP, lat.n, tailBeyond, p.failed()),
		fmt.Sprintf("measured %.3fs, %d updates applied, %d flows attempted", p.window().Seconds(), p.applied(), len(p.flows)),
		gateLine(p.gate),
		fmt.Sprintf("fabric %+v resilience %+v", p.d.inner.Stats(), p.d.inner.Resilience()),
	}
	return res, lines, stamp, nil
}

// gateLine reports the correctness verdict.
func gateLine(g gateResult) string {
	if g.ok() {
		return fmt.Sprintf("gate ok: tables and flow ledgers match the simnet reference (table %.16s)", g.table)
	}
	return "gate FAILED: " + strings.Join(g.failures, "; ")
}

func formatFloats(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
