// Command perfbench is the worker process of the repository benchmark.
// One invocation runs one workload once, in its own process, and
// prints one JSON result line: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced run, together with the
// output checks and the canonical outputs the checks compared.
//
//	perfbench -workload repro-detect -seed 1
//	perfbench -workload fleet-soak -seed 1 -trace -spans spans.json
//
// run.py, next to this file, builds it, runs it at GOMAXPROCS=1 in a
// fresh process per repeat and aggregates the repeats.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// config is one worker invocation.
type config struct {
	workload string
	seed     uint64
	scale    string // "full" or "small" (the self-test scale)
	traced   bool
	tmp      string // scratch root for state and log directories
	unpinned bool   // skip the comparison against pins.json
	// start is the monotonic instant the process entered main; the
	// first set-up is timed from it.
	start time.Time
}

// result is the worker's one output line.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Scale     string             `json:"scale"`
	Traced    bool               `json:"traced"`
	Procs     int                `json:"gomaxprocs"`
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	// Outputs are the canonical outputs the pins and the cross-run
	// comparisons check: equal inputs must give equal outputs, traced
	// or not.
	Outputs map[string]string `json:"outputs"`
	// Samples are the untraced run's raw samples of each timed
	// end-to-end metric, in seconds; the runner pools them over the
	// processes of a run.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Info holds headline figures reported beside the paper's values.
	Info  map[string]float64 `json:"info,omitempty"`
	Spans []span             `json:"-"`
}

// workload is one benchmark workload. setup builds every input and
// object the timed phase needs, under spans when tr is non-nil, and
// may run several times (the last build is kept); run is the timed
// phase; query is the user read of the finished result; check
// verifies the outputs and records them; traced replays the workload
// through the layer calls under spans.
type workload interface {
	setup(tr *tracer) error
	run(ctx context.Context) error
	query() error
	check(c *checker)
	traced(ctx context.Context, tr *tracer, c *checker) (map[string]float64, error)
	close() error
}

// A run samples its set-up and its user read several times and
// reports the medians: up to maxSamples samples, stopping once at
// least minSamples have been taken and sampleBudget has been spent.
// An operation shorter than batchBelow is timed in batches of
// back-to-back calls lasting about batchFor, each sample being the
// batch time divided by the batch size: single calls that short
// drown in timer and scheduling noise.
const (
	minSamples   = 3
	maxSamples   = 31
	sampleBudget = 300 * time.Millisecond
	batchBelow   = 100 * time.Microsecond
	batchFor     = 20 * time.Millisecond
)

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "repro-dcref":
		return newDCRef(cfg), nil
	case "repro-detect":
		return newDetect(cfg), nil
	case "fleet-soak":
		return newSoak(cfg), nil
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q", cfg.workload)
}

func main() {
	start := time.Now()
	var (
		name   = flag.String("workload", "", "workload: repro-dcref, repro-detect or fleet-soak")
		seed   = flag.Uint64("seed", 1, "seed the workload inputs are generated from")
		scale  = flag.String("scale", "full", "input scale: full or small")
		traced = flag.Bool("trace", false, "run the traced variant and report per-layer metrics")
		spans  = flag.String("spans", "", "write the traced run's spans to this JSON file")
		tmp    = flag.String("tmp", "", "scratch directory for state and log directories (default: a fresh one under the working directory)")
		unpin  = flag.Bool("unpinned", false, "skip the comparison against pins.json, to re-pin the outputs")
	)
	flag.Parse()
	cfg := config{workload: *name, seed: *seed, scale: *scale, traced: *traced, tmp: *tmp, unpinned: *unpin, start: start}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *spans != "" {
		if err := writeSpans(*spans, res.Spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload invocation.
func run(cfg config) (*result, error) {
	if cfg.scale != "full" && cfg.scale != "small" {
		return nil, fmt.Errorf("unknown scale %q", cfg.scale)
	}
	if cfg.tmp == "" {
		dir, err := os.MkdirTemp(".", ".perfbench-tmp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		cfg.tmp = dir
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Scale:    cfg.scale,
		Traced:   cfg.traced,
		Procs:    runtime.GOMAXPROCS(0),
	}
	c := newChecker()
	ctx := context.Background()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		res.Metrics, err = w.traced(ctx, tr, c)
		res.Spans = tr.spans
	} else {
		res.Metrics, res.Samples, err = timed(cfg, w, c)
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if !cfg.unpinned {
		c.pin(cfg)
	}
	res.Attempted, res.Failed, res.Failures = c.attempted, c.failed, c.failures
	res.Outputs, res.Info = c.outputs, c.info
	return res, nil
}

// timed runs the untraced measurement: one set-up timed from process
// entry, the timed phase, the user-read samples and the output checks.
// The peak resident set is read then, before the further set-up
// samples, so it reflects one set-up. It returns the process's
// metrics and the raw samples behind the timed ones.
func timed(cfg config, w workload, c *checker) (map[string]float64, map[string][]float64, error) {
	if err := w.setup(nil); err != nil {
		return nil, nil, err
	}
	cold := time.Since(cfg.start)

	t0 := time.Now()
	if err := w.run(context.Background()); err != nil {
		return nil, nil, err
	}
	wall := time.Since(t0).Seconds()

	queries, err := sample(0, nil, w.query)
	if err != nil {
		return nil, nil, err
	}
	w.check(c)
	rss := peakRSSMiB()

	// Each further set-up starts after the previous build is dropped,
	// from the same heap.
	setups, err := sample(cold, func() error {
		err := w.close()
		runtime.GC()
		return err
	}, func() error { return w.setup(nil) })
	if err != nil {
		return nil, nil, err
	}
	samples := map[string][]float64{
		"wall_s":  {wall},
		"setup_s": setups,
		"query_s": queries,
	}
	metrics := map[string]float64{
		"wall_s":      wall,
		"setup_s":     median(append([]float64(nil), setups...)),
		"query_s":     median(append([]float64(nil), queries...)),
		"peak_rss_mb": rss,
	}
	return metrics, samples, nil
}

// sample times fn and returns the samples in seconds per call. first,
// when non-zero, is a sample already taken. prep, when non-nil, runs
// untimed before each sample. The first timed call sizes the batches.
func sample(first time.Duration, prep, fn func() error) ([]float64, error) {
	var out []float64
	spent := first
	if first > 0 {
		out = append(out, first.Seconds())
	}
	batch := 1
	for len(out) < maxSamples && (len(out) < minSamples || spent < sampleBudget) {
		if prep != nil {
			if err := prep(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return nil, err
			}
		}
		d := time.Since(t0)
		spent += d
		out = append(out, d.Seconds()/float64(batch))
		if batch == 1 && d < batchBelow {
			// The single call only sizes the batches; it is not kept.
			batch = int(batchFor/max(d, 100*time.Nanosecond)) + 1
			out = out[:len(out)-1]
		}
	}
	return out, nil
}

// peakRSSMiB is the process's peak resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
