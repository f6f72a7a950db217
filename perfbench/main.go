// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload in-process against the public
// functions of the program's layers, checks the outputs for
// correctness, and prints one JSON result object as the last line of
// standard output:
//
//	go build -o .bench_build/perfbench ./perfbench   # or bash perfbench/run.sh ...
//	perfbench --workload detect-bulk --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics from a traced run (spans
// recorded around every layer call, written to the work directory when
// the run ends). See README.md for the workloads, metrics and seeds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"bgpworms/internal/gen"
	"bgpworms/internal/obs"
)

// workload is one named benchmark input: set-up and timed rounds.
type workload struct {
	name string
	why  string
	run  func(r *runner) error
}

var workloads = []workload{
	{"paper-medium", "the researcher's §4 reproduction: gen/simnet build and churn, core analysis in memory and from MRT bytes", runPaper},
	{"attack-suite", "many incremental reconvergences on forked warm worlds with attack and watch in every cell", runSuite},
	{"detect-bulk", "closed-loop MRT feed through decode, WAL and engines into a 2-shard fleet, then merge and kill -9 recovery", runBulk},
	{"detect-live", "open-loop feed with a skewed hot set plus a fixed-rate frontend query mix and alert-visibility probes", runLive},
}

// endToEnd lists the metrics a --trace 0 run reports, with units. Every
// workload reports every one of them; README.md defines each per
// workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"result_s", "s"},
	{"rate_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports. A layer the
// workload does not call reads 0.
var perLayer = []struct{ name, unit string }{
	{"gen.build_s", "s"},
	{"gen.churn_s", "s"},
	{"simnet.deliveries", "count"},
	{"collector.observations", "count"},
	{"core.analyze_s", "s"},
	{"collector.mrt_write_s", "s"},
	{"mrt.archive_bytes", "bytes"},
	{"core.stream_s", "s"},
	{"suite.cells", "count"},
	{"suite.cell_max_s", "s"},
	{"gen.snapshot_s", "s"},
	{"semantics.train_s", "s"},
	{"scenario.eval_s", "s"},
	{"semantics.dict_eval_s", "s"},
	{"mrt.decode_s", "s"},
	{"durable.ingest_s", "s"},
	{"watch.flush_s", "s"},
	{"durable.wal_bytes", "bytes"},
	{"durable.owned_share_max", "ratio"},
	{"watch.alerts", "count"},
	{"semantics.entries", "count"},
	{"serve.scatter_ms", "ms"},
	{"serve.merge_ms", "ms"},
	{"durable.recover_s", "s"},
	{"durable.replay_records_per_s", "1/s"},
	{"serve.prefix_p50_ms", "ms"},
	{"serve.alerts_p50_ms", "ms"},
	{"serve.stats_p50_ms", "ms"},
	{"serve.dict_stats_p50_ms", "ms"},
	{"watch.pending_max", "count"},
	{"load.late_p95_ms", "ms"},
	{"load.query_p95_ms", "ms"},
	{"mrt.decode_events_per_s", "1/s"},
	{"durable.wal_append_mb_per_s", "MB/s"},
	{"watch.bare_events_per_s", "1/s"},
	{"semantics.obs_per_s", "1/s"},
	{"trace.overhead_s", "s"},
}

// scale sizes the workloads: the benchmark runs fullScale, the
// self-tests a tiny one.
type scale struct {
	paper gen.Params // paper-medium's preset
	suite []byte     // attack-suite's grid
	bulk  feedSpec   // detect-bulk's feed
}

var fullScale = scale{paper: gen.Medium(), suite: attackSuite, bulk: bulkSpec}

// runner carries one run's settings and collects its results.
type runner struct {
	seed    int64
	seconds time.Duration
	workdir string
	scale   scale
	tr      *obs.Trace // nil in untraced runs

	attempted, failed int
	// knownFaults counts failed checks that are a named fault of the
	// program (README.md, "Named fault"): they stay in failed, but do
	// not make the run incorrect.
	knownFaults int
	setups      []float64 // seconds per set-up sample
	results     []float64 // seconds per round
	rates       []float64 // work items per second, per round
	latencies   []float64 // milliseconds, pooled over rounds
	// layer holds the current round's per-layer values and layers every
	// finished round's (traced runs only).
	layer  map[string]float64
	layers map[string][]float64
}

// check counts one correctness operation; a false ok counts as failed
// and is reported on stderr.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// checkKnown is check for an operation that fails on every run because
// of a named fault in the program.
func (r *runner) checkKnown(ok bool, format string, args ...any) {
	r.check(ok, format, args...)
	if !ok {
		r.knownFaults++
	}
}

// setLayer records a per-layer value (traced runs only).
func (r *runner) setLayer(name string, v float64) {
	if r.layer != nil {
		r.layer[name] = v
	}
}

// addLayer accumulates a per-layer value (traced runs only).
func (r *runner) addLayer(name string, v float64) {
	if r.layer != nil {
		r.layer[name] += v
	}
}

// endRound files the round's per-layer values, one sample per metric;
// a traced run reports each metric's median over its rounds.
func (r *runner) endRound() {
	for k, v := range r.layer {
		r.layers[k] = append(r.layers[k], v)
	}
	clear(r.layer)
}

// minSetups is how many set-up samples every run takes at least, so
// setup_s is a median of seven or more.
const minSetups = 7

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
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measurement length per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for durability dirs and trace files")
	calib := flag.Bool("calibrate", false, "print the medium world's traffic profile and the feed's, then exit")
	flag.Parse()
	if *calib {
		if err := calibrate(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	work, err := filepath.Abs(filepath.Join(*workdir, fmt.Sprintf("run-%s-%d-%d", wl.name, *seed, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(work)

	res, err := execute(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, work, *workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.RemoveAll(work)
		os.Exit(1)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// execute runs the workload once untraced; a traced run then repeats it
// with spans on and reports the per-layer metrics, plus the gap between
// the two runs' result_s as the tracing overhead.
func execute(wl *workload, seed int64, seconds time.Duration, traced bool, work, traceDir string) (*result, error) {
	r := &runner{seed: seed, seconds: seconds, workdir: work, scale: fullScale}
	if err := wl.run(r); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	if !traced {
		res.Correct, res.Attempted, res.Failed = r.failed == r.knownFaults, r.attempted, r.failed
		vals := map[string]float64{
			"setup_s":     median(r.setups),
			"result_s":    median(r.results),
			"rate_per_s":  median(r.rates),
			"p50_ms":      quantile(r.latencies, 0.50),
			"p95_ms":      quantile(r.latencies, 0.95),
			"peak_rss_mb": peakRSSMB(),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		}
		fmt.Printf("%s: %d rounds, %d set-ups, %d latency samples\n", wl.name, len(r.results), len(r.setups), len(r.latencies))
		return res, nil
	}
	t := &runner{seed: seed, seconds: seconds, workdir: work, scale: fullScale, tr: obs.NewTrace(wl.name),
		layer: map[string]float64{}, layers: map[string][]float64{}}
	if err := wl.run(t); err != nil {
		return nil, err
	}
	t.endRound() // values set after the last round (layer isolation)
	values := map[string]float64{}
	for name, samples := range t.layers {
		values[name] = median(samples)
	}
	values["trace.overhead_s"] = median(t.results) - median(r.results)
	fmt.Printf("%s: untraced result_s %.4f, traced result_s %.4f, tracing overhead %.4f s\n",
		wl.name, median(r.results), median(t.results), values["trace.overhead_s"])
	if err := t.tr.WriteFile(filepath.Join(traceDir, fmt.Sprintf("trace-%s-%d.json", wl.name, seed))); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = r.attempted+t.attempted, r.failed+t.failed
	res.Correct = r.failed == r.knownFaults && t.failed == t.knownFaults
	names := make([]string, 0, len(perLayer))
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
		names = append(names, m.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g\n", n, values[n])
	}
	return res, nil
}

// peakRSSMB is the process's getrusage maxrss in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// untilDone reports whether a run that started at start has done at
// least minRounds rounds and measured for its full length.
func (r *runner) untilDone(start time.Time, rounds, minRounds int) bool {
	return rounds >= minRounds && time.Since(start) >= r.seconds
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linear-interpolation quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
