// Command appbench is the repository's application-level benchmark. It
// runs one of three workloads (potrf-2r, bspmm-fine, fw-tcp) closed-loop,
// one solve after another, through the public ttg API and the app
// packages, checks every solve, and prints one JSON line:
//
//	appbench --workload potrf-2r --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line holds the end-to-end metrics of untraced
// solves; with --trace 1 it holds the per-layer metrics of a traced run
// (spans, counters, a serial kernel replay), and the spans are written
// to .bench_build/appbench/ when the run ends. README.md documents the
// workloads and the metrics.
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
	"time"
)

// procs is the worker-thread budget of every workload (ranks x workers)
// and the GOMAXPROCS of the run, whatever the host offers.
const procs = 2

// minSolves is the fewest measured solves of each kind a run makes,
// even when they outlast --seconds.
const minSolves = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "potrf-2r, bspmm-fine or fw-tcp")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "appbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	env := environment()
	fmt.Printf("env: nproc=%v GOMAXPROCS=%v cpu=%q go=%v\n", env["nproc"], env["gomaxprocs"], env["cpu"], env["go"])

	inst := mk(*seed)
	b := &bench{name: *name, inst: inst, budget: time.Duration(*seconds) * time.Second}
	if *traced == 1 {
		b.rec = newRecorder()
	}
	b.measure()

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed}
	e2e := b.endToEnd(b.plain)
	printSummary(*name, *seed, b, e2e)
	if *traced == 0 {
		res.Metrics = e2e
	} else {
		res.Metrics = b.perLayer(e2e)
		path := filepath.Join(".bench_build", "appbench", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		err := os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = b.rec.write(path, env)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "appbench: writing spans: %v\n", err)
		}
	}
	for k, m := range res.Metrics {
		// A metric no solve could measure (every solve failed) has no
		// value; JSON cannot carry NaN, and the run is not correct.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "appbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run: a warm-up solve, then measured solves until the
// budget is spent. A traced run repeats rounds of a serial kernel
// replay, an untraced solve and a traced solve, so all three see the
// same machine state.
type bench struct {
	name   string
	inst   *instance
	budget time.Duration
	rec    *recorder

	attempted, failed int
	stopped           bool // a solve timed out; its goroutines are wedged
	plain, traced     []outcome
	replaySecs        []float64
	replayOps         opCount
}

func (b *bench) solve(rec *recorder) (outcome, bool) {
	b.attempted++
	o, err := runSolve(b.inst, b.attempted, rec)
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "appbench: solve %d: %v\n", b.attempted, err)
		b.stopped = err == errTimeout
		return o, false
	}
	return o, true
}

func (b *bench) measure() {
	b.solve(nil) // warm-up: pools, heap and code paths settle
	var kr *kernelReplay
	if b.rec != nil {
		kr = b.inst.replay()
	}
	start := time.Now()
	for !b.stopped {
		enough := len(b.plain) >= minSolves && (b.rec == nil || len(b.traced) >= minSolves)
		if enough && time.Since(start) >= b.budget {
			return
		}
		if kr != nil {
			kr.reset()
			t := time.Now()
			b.replayOps = kr.run()
			b.replaySecs = append(b.replaySecs, time.Since(t).Seconds())
		}
		if o, ok := b.solve(nil); ok {
			b.plain = append(b.plain, o)
		}
		if b.rec != nil && !b.stopped {
			if o, ok := b.solve(b.rec); ok {
				b.traced = append(b.traced, o)
			}
		}
	}
}

// median of f over the outcomes (NaN when there are none).
func median(outs []outcome, f func(outcome) float64) float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = f(o)
	}
	return medianOf(v)
}

func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	v = append([]float64(nil), v...)
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func tasks(o outcome) float64 { return float64(o.st.TasksExecuted) }

// endToEnd holds the metrics a user of the runtime sees, medians over
// the untraced solves.
func (b *bench) endToEnd(outs []outcome) map[string]metric {
	return map[string]metric{
		"setup_s":              {median(outs, func(o outcome) float64 { return o.setup }), "s"},
		"solve_s":              {median(outs, func(o outcome) float64 { return o.solve }), "s"},
		"cpu_s":                {median(outs, func(o outcome) float64 { return o.cpu }), "s"},
		"allocs_per_task":      {median(outs, func(o outcome) float64 { return ratio(o.allocs, tasks(o)) }), "count"},
		"alloc_bytes_per_task": {median(outs, func(o outcome) float64 { return ratio(o.allocBytes, tasks(o)) }), "bytes"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
	}
}

// wireBytesPerTask and failedFrac complete the end-to-end set; they sit
// with the per-layer metrics because both are 0 by design on some runs.
func wireBytesPerTask(outs []outcome) float64 {
	return median(outs, func(o outcome) float64 { return ratio(float64(o.st.BytesSent), tasks(o)) })
}

func (b *bench) failedFrac() float64 { return ratio(float64(b.failed), float64(b.attempted)) }

func printSummary(name string, seed int64, b *bench, e2e map[string]metric) {
	solve := e2e["solve_s"].Value
	fmt.Printf("%s seed=%d solves=%d (+%d traced) setup_s=%.4g s, solve_s=%.4g s (%.3g GF/s), cpu_s=%.4g s, allocs_per_task=%.4g count, alloc_bytes_per_task=%.4g bytes, wire_bytes_per_task=%.4g bytes, peak_rss_mb=%.4g MB, failed_frac=%g frac\n",
		name, seed, len(b.plain), len(b.traced), e2e["setup_s"].Value, solve, b.inst.flops/solve/1e9,
		e2e["cpu_s"].Value, e2e["allocs_per_task"].Value, e2e["alloc_bytes_per_task"].Value,
		wireBytesPerTask(b.plain), e2e["peak_rss_mb"].Value, b.failedFrac())
	if len(b.plain) > 0 {
		v := make([]float64, len(b.plain))
		for i, o := range b.plain {
			v[i] = o.solve
		}
		sort.Float64s(v)
		fmt.Printf("solve_s over %d solves: min %.4g median %.4g", len(v), v[0], medianOf(v))
		// The highest percentile with at least ten solves beyond it, once
		// that lies above the median.
		if n := len(v); n >= 20 {
			fmt.Printf(" p%d %.4g", 100*(n-10)/n, v[n-11])
		}
		fmt.Printf(" max %.4g\n", v[len(v)-1])
	}
}
