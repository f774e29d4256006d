// Command perfbench is the repository benchmark. One run drives one of five
// workloads for a fixed time, checks the program's outputs for correctness,
// and prints a JSON report as the last line of its standard output:
//
//	perfbench --workload wire-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the report carries the end-to-end metrics that
// BENCHMARK.json bounds (throughput and set-up time); latency, live heap and
// the failure rate are printed in the notes before it. With --trace 1 the run is a separate
// traced run: it records spans around the calls into each layer's public
// functions, reads the layers' public counters, writes the spans to a file
// at exit, and reports the per-layer metrics instead. README.md in this
// directory explains why each workload exists and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one run's settings. The flags set the first four fields; the
// tests shrink the rest.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	workDir  string // WAL directories and trace files live under here
	clients  int    // client goroutines / connections
	setups   int    // least set-up repetitions; setup_s is their median
	keys     uint64 // served key universe
	hot      uint64 // hot keys (incs, transfers, the durable counters)
	tableCap int    // paper-hashtable capacity
	warmTxs  int    // paper-hashtable transactions that age the table before timing
}

func defaultConfig() config {
	return config{
		workDir:  ".bench_build",
		clients:  runtime.NumCPU(),
		setups:   3,
		keys:     1 << 20,
		hot:      4096,
		tableCap: 2048,
		warmTxs:  15000,
	}
}

// measure is the measured time of the run.
func (c *config) measure() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured time of the run")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = *traceFlag == 1

	env, err := probeEnv(cfg.workDir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	rep, err := wl(&cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.set("wal.device_fsync_us", env.deviceFsyncUs)
	fmt.Fprintln(stdout, env)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "%s: %s\n", cfg.workload, n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(stdout, "%s: CHECK FAILED: %s\n", cfg.workload, p)
	}
	line, err := rep.json(cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*report, error){
	"wire-mixed":      func(c *config) (*report, error) { return runServed(c, wireMixed) },
	"inproc-mixed":    func(c *config) (*report, error) { return runServed(c, inprocMixed) },
	"durable-counter": func(c *config) (*report, error) { return runServed(c, durableCounter) },
	"durable-nofsync": func(c *config) (*report, error) { return runServed(c, durableNoFsync) },
	"paper-hashtable": runHashtable,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// metricDef names one reported metric and its unit; the two tables below are
// the metric lists of BENCHMARK.json, in the same order.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
}

// perLayer metrics a workload does not exercise read 0: the layer is not on
// that workload's path (no WAL in the volatile workloads, no wire in-process,
// no server in paper-hashtable).
var perLayer = []metricDef{
	{"server.wire.rtt_p50_us", "us"},
	{"server.wire.rtt_p99_us", "us"},
	{"server.wire.bytes_per_req", "B"},
	{"server.submit_p50_us", "us"},
	{"server.submit_p99_us", "us"},
	{"server.window_mean", "count"},
	{"server.requests_per_commit", "count"},
	{"server.merged_inc_frac", "frac"},
	{"server.solo_frac", "frac"},
	{"stm.aborts_per_commit", "count"},
	{"stm.abort.cmp_flip_per_commit", "count"},
	{"stm.abort.validation_per_commit", "count"},
	{"stm.attempts_per_tx", "count"},
	{"stm.val_entries_per_commit", "count"},
	{"stm.body_us_p50", "us"},
	{"stm.commit_us_p50", "us"},
	{"stm.cmps_per_commit", "count"},
	{"stm.incs_per_commit", "count"},
	{"stm.reads_per_commit", "count"},
	{"stm.spin_waits_per_commit", "count"},
	{"stm.escalations", "count"},
	{"shard.cross_frac", "frac"},
	{"shard.revals_per_cross", "count"},
	{"wal.fsyncs_per_req", "count"},
	{"wal.appends_per_req", "count"},
	{"wal.group_size", "count"},
	{"wal.bytes_per_req", "B"},
	{"wal.device_fsync_us", "us"},
	{"wal.recover_s", "s"},
	{"go.allocs_per_op", "count"},
	{"go.gc_pause_ms", "ms"},
	{"loadgen.late_p99_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// report is one run's outcome: the correctness verdict, the operation
// tallies, the metric values, and human-readable notes printed before the
// JSON line.
type report struct {
	problems          []string
	attempted, failed uint64
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed correctness check.
func (r *report) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonReport struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// json renders the result line: the end-to-end metrics, or with traced the
// per-layer ones. An end-to-end metric the run did not measure is a bug.
func (r *report) json(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonReport{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	return json.Marshal(out)
}

// minSetupTime is how long set-up is repeated for at least: a set-up far
// shorter than that is timed many times, so that its median is steady.
const minSetupTime = 250 * time.Millisecond

// maxSetups bounds the repetitions of a cheap set-up.
const maxSetups = 100

// setUp runs once at least cfg.setups times, and further until minSetupTime
// has passed or maxSetups runs are done, and returns the median of the
// set-up times once reports, in seconds. The last set-up is the one the
// run drives.
func setUp(cfg *config, once func() (time.Duration, error)) (float64, error) {
	var times []float64
	var spent time.Duration
	for len(times) < cfg.setups || (spent < minSetupTime && len(times) < maxSetups) {
		d, err := once()
		if err != nil {
			return 0, err
		}
		spent += d
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// runDir makes a fresh per-process directory under the work directory for
// the run's WAL files; the caller removes it.
func runDir(cfg *config) (string, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
