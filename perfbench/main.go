// Command perfbench is the repository's benchmark. It runs one named
// workload — a closed batch of simulator cells, back to back on one
// goroutine — for a fixed wall-clock budget, checks every cell against
// experiment.Run and the chaos invariants, and prints one JSON line:
//
//	perfbench --workload testbed-dynamics --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics (tracing off). With
// --trace 1 it alternates untraced and traced passes and reports the
// per-layer metrics taken from spans recorded around the calls into
// topology, netsim, physical, engine, adapt and ctrlplane, and writes the
// spans to --out. See WORKLOADS.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload workload
	seed     int64
	seconds  float64
	traced   bool
	out      string
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: testbed-dynamics, planet-scale or ctrl-chaos")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "wall-clock seconds of timed passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".", "directory the traced run writes its span file to")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() > 0 {
		return config{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return config{}, err
	}
	if *seconds <= 0 {
		return config{}, errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return config{}, errors.New("--trace must be 0 or 1")
	}
	return config{workload: w, seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// The simulator runs on one goroutine; the garbage collector may use
	// one more core.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	b, err := newBench(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		rep := report{Attempted: len(b.cells), Failed: len(b.cells), Metrics: map[string]metric{}}
		printReport(stdout, rep)
		return 1
	}
	rep := b.measure(cfg, stderr)
	if cfg.traced && b.tr != nil {
		path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
		if err := writeSpans(path, b.tr.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s (%d)\n", path, len(b.tr.spans))
	}
	printReport(stdout, rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, rep report) {
	line, err := json.Marshal(rep)
	if err != nil { // a metric is not finite: only a failed run gets here
		rep.Correct, rep.Metrics = false, map[string]metric{}
		line, _ = json.Marshal(rep)
	}
	fmt.Fprintln(w, string(line))
}

// bench holds one workload's cells with their reference results.
type bench struct {
	name  string
	cells []cell
	refs  []*result
	// largest is the index of the cell with the most sites.
	largest int
	tr      *tracer
	// firstWork holds each cell's work counts from the first pass of
	// each mode (index 0 untraced, 1 traced); later passes must repeat
	// them exactly.
	firstWork [2][]*work
}

// newBench builds the workload's cells and runs each once through
// experiment.Run for the reference check. This also warms the caches
// before anything is timed.
func newBench(w workload, seed int64) (*bench, error) {
	b := &bench{name: w.name, cells: w.cells(seed)}
	b.firstWork = [2][]*work{make([]*work, len(b.cells)), make([]*work, len(b.cells))}
	most := 0
	for i, c := range b.cells {
		ref, sites, err := reference(c)
		if err != nil {
			return b, err
		}
		b.refs = append(b.refs, ref)
		if sites > most {
			most, b.largest = sites, i
		}
	}
	return b, nil
}

// pass is one run of every cell of the workload.
type pass struct {
	tm      timing // summed over cells
	work    work   // summed over cells
	mallocs uint64
	bytes   uint64
	// self is each span name's self time in seconds (traced passes).
	self map[string]float64
	// roundsUs lists every controller round's duration (traced passes).
	roundsUs []float64
}

// runPass runs every cell once, checks each result, and returns the pass
// with the number of cells that failed.
func (b *bench) runPass(n int, traced bool, stderr io.Writer) (pass, int) {
	var p pass
	var tr *tracer
	mode, firstSpan := 0, 0
	if traced {
		if b.tr == nil {
			b.tr = newTracer(b.name)
		}
		tr, mode, firstSpan = b.tr, 1, len(b.tr.spans)
		tr.pass = n
	}
	failed := 0
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs, bytes := ms.Mallocs, ms.TotalAlloc
	for i, c := range b.cells {
		if tr != nil {
			tr.cell = c.name
		}
		// Each cell starts on a collected heap, as it would in a process
		// of its own; the collection is not timed.
		runtime.GC()
		res, wk, tm, err := runCell(c, runOpts{tr: tr})
		if err != nil {
			fmt.Fprintf(stderr, "FAIL %s pass %d: %v\n", c.name, n, err)
			failed++
			continue
		}
		// A cell whose result fails a check still ran to completion: its
		// time counts, and the failure is reported beside the metrics.
		p.tm.wall += tm.wall
		p.tm.setup += tm.setup
		p.tm.simulate += tm.simulate
		p.work.add(wk)
		first := &b.firstWork[mode][i]
		if *first == nil {
			*first = &wk
		}
		err = compare(res, b.refs[i], c.settles)
		if err == nil && **first != wk {
			err = fmt.Errorf("work counts %+v differ from the first pass %+v", wk, **first)
		}
		if err != nil {
			fmt.Fprintf(stderr, "FAIL %s pass %d: %v\n", c.name, n, err)
			failed++
		}
	}
	runtime.ReadMemStats(&ms)
	p.mallocs, p.bytes = ms.Mallocs-mallocs, ms.TotalAlloc-bytes
	if tr != nil {
		spans := tr.spans[firstSpan:]
		p.self = selfTimes(spans)
		for _, s := range spans {
			if s.Name == "adapt.round" {
				p.roundsUs = append(p.roundsUs, float64(s.dur())/1e3)
			}
		}
	}
	return p, failed
}

// measure runs timed passes for the configured wall-clock budget (at
// least minPasses of each kind) and reduces them to the report.
func (b *bench) measure(cfg config, stderr io.Writer) report {
	const minPasses = 3
	rep := report{Correct: true, Metrics: map[string]metric{}}
	heap, err := heapAfterSetup(b.cells[b.largest])
	if err != nil {
		fmt.Fprintf(stderr, "FAIL %s heap probe: %v\n", b.cells[b.largest].name, err)
		rep.Attempted++
		rep.Failed++
	}

	var plain, traced []pass
	deadline := now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; ; n++ {
		withTrace := cfg.traced && n%2 == 1
		p, failed := b.runPass(n, withTrace, stderr)
		rep.Attempted += len(b.cells)
		rep.Failed += failed
		if withTrace {
			traced = append(traced, p)
		} else {
			plain = append(plain, p)
		}
		enough := len(plain) >= minPasses && (!cfg.traced || len(traced) >= minPasses)
		if enough && !now().Before(deadline) {
			break
		}
	}
	rep.Correct = rep.Failed == 0
	if cfg.traced {
		rep.Metrics = layerMetrics(plain, traced)
	} else {
		rep.Metrics = endToEnd(plain, heap)
	}
	fmt.Fprintf(stderr, "%s seed %d: %d cells, %d untraced and %d traced passes, work per pass %+v\n",
		b.name, cfg.seed, len(b.cells), len(plain), len(traced), plain[0].work)
	return rep
}

func endToEnd(passes []pass, heap uint64) map[string]metric {
	med := func(f func(p pass) float64) float64 {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = f(p)
		}
		return median(v)
	}
	return map[string]metric{
		"wall_s":               {med(func(p pass) float64 { return p.tm.wall.Seconds() }), "s"},
		"setup_s":              {med(func(p pass) float64 { return p.tm.setup.Seconds() }), "s"},
		"ticks_per_s":          {med(func(p pass) float64 { return float64(p.work.Ticks) / p.tm.simulate.Seconds() }), "1/s"},
		"allocs_per_tick":      {med(func(p pass) float64 { return float64(p.mallocs) / float64(p.work.Ticks) }), "count"},
		"alloc_bytes_per_tick": {med(func(p pass) float64 { return float64(p.bytes) / float64(p.work.Ticks) }), "B"},
		"setup_heap_mb":        {float64(heap) / 1e6, "MB"},
	}
}

// spanMetrics maps span names to the per-layer self-time metrics.
var spanMetrics = []struct{ span, metric string }{
	{"topology.generate", "topology.generate_s"},
	{"netsim.setup", "netsim.setup_s"},
	{"physical.plan", "physical.plan_s"},
	{"engine.deploy", "engine.deploy_s"},
	{"adapt.setup", "adapt.setup_s"},
	{"engine.run", "engine.tick_self_s"},
	{"adapt.round", "adapt.round_s"},
	{"adapt.checkpoint", "adapt.checkpoint_s"},
	{"experiment.sample", "experiment.sample_s"},
	{"experiment.cell", "experiment.cell_s"},
}

func layerMetrics(plain, traced []pass) map[string]metric {
	m := map[string]metric{}
	for _, sm := range spanMetrics {
		v := make([]float64, len(traced))
		for i, p := range traced {
			v[i] = p.self[sm.span]
		}
		m[sm.metric] = metric{median(v), "s"}
	}
	perTick := make([]float64, len(traced))
	var rounds []float64
	for i, p := range traced {
		perTick[i] = p.self["engine.run"] / float64(p.work.Ticks) * 1e6
		rounds = append(rounds, p.roundsUs...)
	}
	m["engine.tick_self_us"] = metric{median(perTick), "us"}

	slices.Sort(rounds)
	pct, tail := tailPercentile(rounds)
	m["adapt.round_p50_us"] = metric{quantile(rounds, 0.5), "us"}
	m["adapt.round_tail_us"] = metric{tail, "us"}
	m["adapt.round_tail_pct"] = metric{pct, "%"}
	m["adapt.round_samples"] = metric{float64(len(rounds)), "count"}

	w := traced[0].work
	for name, v := range map[string]int64{
		"engine.ticks":              w.Ticks,
		"physical.candidates":       w.Candidates,
		"adapt.rounds":              w.Rounds,
		"adapt.checkpoints":         w.Checkpoints,
		"adapt.actions":             w.Actions,
		"adapt.replans":             w.Replans,
		"adapt.reconfigs":           w.Reconfigs,
		"adapt.aborts":              w.Aborts,
		"ctrlplane.reports":         w.Reports,
		"ctrlplane.report_drops":    w.ReportDrops,
		"ctrlplane.commands":        w.Commands,
		"ctrlplane.command_retries": w.CommandRetries,
	} {
		m[name] = metric{float64(v), "count"}
	}

	walls := func(ps []pass) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = p.tm.wall.Seconds()
		}
		return median(v)
	}
	m["trace.overhead_frac"] = metric{walls(traced)/walls(plain) - 1, "ratio"}
	return m
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// tailPercentile returns the highest of the percentiles 50, 90, 99, 99.9
// and 99.99 that has at least ten of the sorted samples beyond it, and the
// value there.
func tailPercentile(sorted []float64) (pct, value float64) {
	pct = 50
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(len(sorted))*(1-p/100) >= 10 {
			pct = p
		}
	}
	return pct, quantile(sorted, pct/100)
}
