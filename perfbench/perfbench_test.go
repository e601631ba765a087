package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// unseenSeed was never used while the benchmark was developed.
const unseenSeed = 7919

// cellSets are the cells of every workload built from seed, including the
// seed-independent ones, so the driver is checked on inputs the figures
// never use. ctrl-chaos is cut to its first cells to keep the test short.
func cellSets(seed int64) map[string][]cell {
	return map[string][]cell{
		"testbed-dynamics": testbedCells(seed),
		"planet-scale":     planetCells(seed),
		"ctrl-chaos":       ctrlChaosCells(seed)[:4],
	}
}

func TestDriverMatchesExperimentRun(t *testing.T) {
	for _, seed := range []int64{figureSeed, unseenSeed} {
		for name, cells := range cellSets(seed) {
			for _, c := range cells {
				want, _, err := reference(c)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, name, c.name, err)
				}
				for _, traced := range []bool{false, true} {
					var tr *tracer
					if traced {
						tr = newTracer(name)
					}
					got, _, _, err := runCell(c, runOpts{tr: tr})
					if err != nil {
						t.Fatalf("seed %d %s/%s traced=%v: %v", seed, name, c.name, traced, err)
					}
					if err := match(got, want); err != nil {
						t.Errorf("seed %d %s/%s traced=%v: %v", seed, name, c.name, traced, err)
					}
				}
			}
		}
	}
}

func TestWorkloadsPassChecksAtFigureSeed(t *testing.T) {
	for _, w := range workloads {
		b, err := newBench(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, failed := b.runPass(0, false, os.Stderr); failed > 0 {
			t.Errorf("%s: %d of %d cells failed", w.name, failed, len(b.cells))
		}
	}
}

func TestSpanTree(t *testing.T) {
	b, err := newBench(workloads[1], 1) // planet-scale: the shortest pass
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 2; n++ {
		p, failed := b.runPass(n, true, os.Stderr)
		if failed > 0 {
			t.Fatalf("pass %d: %d cells failed", n, failed)
		}
		var self float64
		for _, v := range p.self {
			self += v
		}
		if wall := p.tm.wall.Seconds(); math.Abs(self-wall) > 1e-9*float64(len(b.tr.spans)) {
			t.Errorf("pass %d: self times sum to %.9fs, traced wall is %.9fs", n, self, wall)
		}
		for _, sm := range spanMetrics {
			if sm.span != "adapt.checkpoint" && p.self[sm.span] <= 0 {
				t.Errorf("pass %d: no self time recorded for %s", n, sm.span)
			}
		}
	}
	if err := checkTree(b.tr.spans); err != nil {
		t.Fatal(err)
	}
	for _, s := range b.tr.spans {
		if s.Parent < 0 && s.Name != "experiment.cell" {
			t.Fatalf("root span %s, want experiment.cell", s.Name)
		}
	}
}

func TestCheckTreeRejectsBadNesting(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "experiment.cell", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "engine.run", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "adapt.round", Start: 80, End: 95},
	}
	if err := checkTree(spans); err == nil {
		t.Fatal("a child ending after its parent passed")
	}
	spans[2].End = 85
	if err := checkTree(spans); err != nil {
		t.Fatal(err)
	}
	got := selfTimes(spans)
	if got["experiment.cell"] != 20e-9 || got["engine.run"] != 75e-9 || got["adapt.round"] != 5e-9 {
		t.Fatalf("self times %v", got)
	}
}

// TestWorkCountsRepeat checks that every work count is a pure function of
// the inputs: equal across passes and across GOMAXPROCS 1 and 2.
func TestWorkCountsRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range workloads {
		var first []work
		for _, procs := range []int{1, 2, 1} {
			runtime.GOMAXPROCS(procs)
			var counts []work
			for _, c := range w.cells(1)[:2] {
				_, wk, _, err := runCell(c, runOpts{tr: newTracer(w.name)})
				if err != nil {
					t.Fatal(err)
				}
				counts = append(counts, wk)
			}
			if first == nil {
				first = counts
				continue
			}
			for i := range counts {
				if counts[i] != first[i] {
					t.Errorf("%s cell %d GOMAXPROCS=%d: %+v, first run %+v", w.name, i, procs, counts[i], first[i])
				}
			}
		}
	}
}

// TestReportMatchesBenchmarkJSON runs the command end to end in both modes
// and checks that the last line carries exactly the metrics, with the
// units, that BENCHMARK.json declares.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "planet-scale", "--seed", "3", "--seconds", "0.01", "--trace", trace, "--out", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
			t.Errorf("trace %s: %+v", trace, rep)
		}
		if len(rep.Metrics) != len(want) {
			t.Errorf("trace %s: %d metrics, BENCHMARK.json declares %d", trace, len(rep.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", trace, m.Name, got, m.Unit)
			}
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "planet-scale", "--trace", "2"},
		{"--workload", "planet-scale", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// checkTree reports the first span of a run of consecutive ids that is
// not closed, does not nest inside its parent, or has negative self time.
func checkTree(spans []span) error {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.ID != spans[0].ID+i {
			return fmt.Errorf("span %d: id out of sequence", s.ID)
		}
		if s.End < s.Start {
			return fmt.Errorf("span %d %s: end before start", s.ID, s.Name)
		}
		self[i] += s.dur()
		if s.Parent < 0 {
			continue
		}
		pi := s.Parent - spans[0].ID
		if pi < 0 || pi >= i {
			return fmt.Errorf("span %d %s: parent %d outside the run", s.ID, s.Name, s.Parent)
		}
		p := spans[pi]
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d %s: not inside parent %d %s", s.ID, s.Name, p.ID, p.Name)
		}
		self[pi] -= s.dur()
	}
	for i, s := range spans {
		if self[i] < 0 {
			return fmt.Errorf("span %d %s: negative self time %dns", s.ID, s.Name, self[i])
		}
	}
	return nil
}
