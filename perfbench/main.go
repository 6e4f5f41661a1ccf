// Command perfbench is the repository's benchmark. It drives a wafl.System
// from one goroutine in a closed loop, times the calls into internal/wafl,
// reads the program's public counters for the modeled metrics, and checks
// the final state of every round for correctness.
//
//	bash perfbench/run.sh --workload oltp-aged --seed 1 --seconds 10 --trace 0
//
// A run repeats rounds of identical work (set-up, measured phase, checks)
// from the seed until --seconds of measured phase have passed: host metrics
// are medians, in reference time (see ref.go), while every modeled metric is
// exact for the seed. With --trace 1 the run alternates profiled rounds (a
// CPU profile folded by package) and traced rounds (a span around every
// call, heap objects allocated per CP) and reports the per-layer metrics.
// The last line of standard output is a JSON object with the results; the
// lines before it give the same numbers as text. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

const (
	// maxWorkers pins Tunables.Workers and GOMAXPROCS (at most nproc).
	maxWorkers = 2
	// minRounds gives setup_s a median of at least three set-ups.
	minRounds = 3
	// minCPs lets cp_ms_p90 have at least ten samples beyond it.
	minCPs = 100
	// wallBudget bounds one run's wall time in seconds; no round starts that
	// would likely end past it.
	wallBudget = 150
	// spansDir, relative to the root of the checkout, receives a traced
	// run's spans.
	spansDir = ".bench_build/spans"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: oltp-aged, oltp-observed or snapshot-failover")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured-phase seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(cfg.workload)
	if !ok || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <oltp-aged|oltp-observed|snapshot-failover> --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.workers = min(runtime.NumCPU(), maxWorkers)
	runtime.GOMAXPROCS(cfg.workers)

	res := run(w, cfg)
	var metrics []metric
	if cfg.trace {
		metrics = layerMetrics(res)
	} else {
		metrics = endToEndMetrics(res)
	}
	for _, e := range res.errors {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	fmt.Printf("# %s seed=%d rounds=%d workers=%d\n", w.name, cfg.seed, len(res.rounds), cfg.workers)
	for i, rr := range res.rounds {
		fmt.Printf("# round %d: host set-up %.3fs, host measured %.3fs (%.0f ops/s), %d CPs, traced=%v, reference scale %.3f\n",
			i, rr.setupHostS, rr.measuredHostS, ratio(float64(rr.attempted), rr.measuredHostS), len(rr.cpMs), rr.traced, rr.scale)
	}
	out := result{Correct: res.correct(), Attempted: res.attempted(), Failed: res.failed(), Metrics: map[string]value{}}
	for _, m := range metrics {
		fmt.Printf("%-32s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
		out.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string
}
