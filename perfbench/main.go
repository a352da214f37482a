// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — an offline Random-Schedule solve, the per-arrival rolling/delta
// scheduler, or a `dcnflow serve` subprocess under open-loop load — checks
// every output it produces, and prints its metrics as one JSON object on
// the last line of standard output.
//
//	perfbench --workload offline-ft32 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// the run is repeated untraced and traced, spans are recorded around every
// layer call, written to --spans at exit, and the object carries the
// per-layer metrics plus the tracing overhead. A failed correctness check
// still prints the object (correct=false) but exits with status 1.
//
// The benchmark only calls the public functions of the program's layers
// and times them from its own files; run.sh builds it and the dcnflow
// binary from source.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below must
// match BENCHMARK.json (the smoke test checks it).
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints. Each workload maps
// its own unit of work onto the latency and throughput names: a solve to
// the duality gap (offline), one AdvanceTo+Arrive (online) or one request
// at the nominal rate (serve), each timed at the fast end of its repeats;
// throughput is solves/s or arrivals/s over those times, or the overload
// phase's saturation rate. energy_per_bound is the simulated schedule
// energy over the flows' isolated-flow bound (see isolatedBound), averaged
// over instances or corpus requests.
// The tail is p95: p99 of the nominal requests of a serve run moved by
// 13 % or more between runs of one seed, too much to bound a regression;
// printLatencies still shows it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"energy_per_bound", "ratio"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run prints. A layer a workload
// never calls reports 0: its measured self time and count there are zero.
var perLayer = []metricDef{
	{"topology.build_ms", "ms"},
	{"flow.gen_ms", "ms"},
	{"graph.compile_ms", "ms"},
	{"serve.start_ms", "ms"},
	{"core.relax_ms", "ms"},
	{"core.round_ms", "ms"},
	{"core.rounding_attempts", "count"},
	{"mcfsolve.interval_ms_p50", "ms"},
	{"mcfsolve.interval_ms_max", "ms"},
	{"mcfsolve.fw_iters", "count"},
	{"mcfsolve.gap_met_frac", "ratio"},
	{"mcfsolve.iters_per_interval", "count"},
	{"mcfsolve.oracle_share", "ratio"},
	{"graph.sssp_trees", "count"},
	{"graph.sssp_heap_us", "us"},
	{"graph.sssp_dial_us", "us"},
	{"online.epochs", "count"},
	{"online.delta_frac", "ratio"},
	{"online.delta_arrive_us_p50", "us"},
	{"online.full_arrive_us_p50", "us"},
	{"core.solved_intervals", "count"},
	{"core.reuse_frac", "ratio"},
	{"core.seeded_intervals", "count"},
	{"engine.runtime_ms_p50", "ms"},
	{"engine.runtime_ms_p99", "ms"},
	{"engine.runtime_ms_p50.dcfsr", "ms"},
	{"engine.runtime_ms_p50.sp-mcf", "ms"},
	{"engine.runtime_ms_p50.greedy-online", "ms"},
	{"engine.cache_hit_frac", "ratio"},
	{"serve.overhead_ms_p50", "ms"},
	{"loadgen.wait_ms_p99", "ms"},
	{"sim.validate_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks every workload to a size that runs in about a second,
	// for the harness's own test.
	smoke bool
	// bin is the dcnflow binary the serve workload launches.
	bin string
	// spans is where a traced run writes its spans.
	spans string
}

// outcome is what a workload run reports back to main.
type outcome struct {
	attempted, failed int
	// problems describes every failed check, one line each.
	problems []string
	metrics  map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workloads maps each --workload name to its runner.
var workloads = map[string]func(runConfig, *tracer) (*outcome, error){
	"offline-ft32":     runOffline,
	"online-delta-ft8": runOnline,
	"serve-mix":        runServe,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// errFailedChecks marks a run that completed but failed a correctness
// check; its result has already been printed.
var errFailedChecks = errors.New("correctness checks failed")

func run() error {
	name := flag.String("workload", "", "workload: offline-ft32 | online-delta-ft8 | serve-mix")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "measured seconds (a traced run splits them between an untraced and a traced pass)")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	smoke := flag.Bool("smoke", false, "tiny inputs, for the harness's own test")
	bin := flag.String("bin", "", "dcnflow binary (serve-mix)")
	spans := flag.String("spans", "", "span output file of a traced run (default .bench_build/spans-<workload>-<seed>.jsonl)")
	flag.Parse()

	runner, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, bin: *bin, spans: *spans}
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s/seed=%d/pid=%d", *name, *seed, os.Getpid()))
	}
	out, err := runner(cfg, tr)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if err := tr.write(cfg.spans); err != nil {
			return err
		}
		tr.printSelfTimes(os.Stderr)
	}
	return report(out, defs)
}

// report prints the metric table to stderr and the result object as the
// last line of stdout.
func report(out *outcome, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("workload did not produce metric %s", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(os.Stderr, "  %-38s %14.6g %s\n", d.name, v, d.unit)
	}
	if res.Attempted < 1 {
		return fmt.Errorf("workload attempted no operations")
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d (fail_frac %.4g)\n",
		res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	for i, p := range out.problems {
		if i == maxPrintedProblems {
			fmt.Fprintf(os.Stderr, "  ... and %d more failed checks\n", len(out.problems)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "  FAILED CHECK:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errFailedChecks
	}
	return nil
}

// maxPrintedProblems caps the failed checks report prints.
const maxPrintedProblems = 20

// setupSamples is how many timed samples of its set-up a run takes;
// setup_s is their median.
const setupSamples = 15

// repeatSetup takes setupSamples samples of build and returns the last
// value it built and the median time of one build. A sample runs build
// perSample times back to back, so a set-up of a millisecond or two is
// timed as a unit of tens of milliseconds, where one scheduling hiccup
// weighs less. Each sample starts after a full garbage collection, so a
// collection of the previous sample's garbage does not land in its time.
func repeatSetup[T any](perSample int, build func() (T, error)) (T, float64, error) {
	var (
		v     T
		times []float64
	)
	for i := 0; i < setupSamples; i++ {
		runtime.GC()
		t0 := time.Now()
		for j := 0; j < perSample; j++ {
			var err error
			if v, err = build(); err != nil {
				return v, 0, err
			}
		}
		times = append(times, time.Since(t0).Seconds()/float64(perSample))
	}
	return v, median(times), nil
}

// selfPeakRSSMB is this process's resident-set high-water mark.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value of xs (mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for none. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// printLatencies writes the latency distribution of a run's operations to
// stderr.
func printLatencies(what string, lat []float64) {
	fmt.Fprintf(os.Stderr, "%s latency over %d samples: p50 %.4g p90 %.4g p95 %.4g p99 %.4g max %.4g ms\n",
		what, len(lat), median(lat), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 1))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
