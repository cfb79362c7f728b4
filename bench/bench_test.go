package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"blockbench"
	"blockbench/report"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue in metrics.go and workloads.go")

func TestSteadyRate(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	ramp := []frame{{ms(250), 10}, {ms(500), 30}, {ms(750), 130}, {ms(1000), 230}, {ms(1250), 330}}
	cases := []struct {
		name   string
		frames []frame
		drop   int
		tps    float64
		kept   int
	}{
		{"ramp-up frames count neither as commits nor as time", ramp, 2, 400, 3},
		{"one dropped frame", ramp, 1, (330 - 10) / 1.0, 4},
		{"uneven frame lengths use the frames' own clocks", []frame{{ms(250), 100}, {ms(600), 200}, {ms(750), 300}}, 1, 400, 2},
		{"a stall still counts as time", []frame{{ms(250), 100}, {ms(500), 100}, {ms(750), 100}, {ms(1000), 250}}, 1, 200, 3},
		{"nothing left after the drop", ramp, 5, 0, 0},
		{"drop beyond the run", ramp, 9, 0, 0},
		{"no frames", nil, 1, 0, 0},
		{"drop 0 has no starting edge", ramp, 0, 0, 0},
		{"a counter that ran backwards is not a rate", []frame{{ms(250), 100}, {ms(500), 50}}, 1, 0, 0},
	}
	for _, c := range cases {
		tps, kept := steadyRate(c.frames, c.drop)
		if math.Abs(tps-c.tps) > 1e-9 || kept != c.kept {
			t.Errorf("%s: steadyRate = %v over %d frames, want %v over %d", c.name, tps, kept, c.tps, c.kept)
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	cases := []struct {
		name                   string
		due, submitted, chain  uint64
		share                  float64
		failed                 uint64
		wantProblem, committed bool
	}{
		{"healthy", 1000, 1000, 1000, 0, 0, false, true},
		{"the generator fell 1% behind: nothing submitted was lost", 1000, 990, 990, 0.01, 0, false, true},
		{"a host stall cost the generator 13%: less comparable, not wrong", 1000, 870, 870, 0.13, 0, false, true},
		{"the generator delivered under half: the harness is broken", 1000, 400, 400, 0.60, 0, true, true},
		{"5 of 1000 submitted operations never reached a chain", 1000, 1000, 995, 0.005, 5, false, true},
		{"20 of 1000 submitted operations never reached a chain", 1000, 1000, 980, 0.02, 20, true, true},
		{"more ids on chain than submitted (a straggler of the warm-up)", 1000, 1000, 1003, 0, 0, false, true},
		{"nothing due", 0, 0, 0, 0, 0, true, false},
	}
	for _, c := range cases {
		if got := failedShare(c.due, c.chain); math.Abs(got-c.share) > 1e-9 {
			t.Errorf("%s: failedShare = %v, want %v", c.name, got, c.share)
		}
		if got := missing(c.submitted, c.chain); got != c.failed {
			t.Errorf("%s: missing = %d, want %d", c.name, got, c.failed)
		}
		var committed uint64
		if c.committed {
			committed = c.chain
		}
		rep := reportWith(committed)
		rep.Submitted = c.submitted
		r := &result{}
		r.checkPaced("paced", &paced{rep: rep, due: c.due, onChain: c.chain})
		if (len(r.Problems) > 0) != c.wantProblem {
			t.Errorf("%s: problems = %v, want a problem: %v", c.name, r.Problems, c.wantProblem)
		}
		if r.Attempted != c.submitted || r.Failed != c.failed {
			t.Errorf("%s: attempted/failed = %d/%d, want %d/%d", c.name, r.Attempted, r.Failed, c.submitted, c.failed)
		}
	}
}

// TestChainWatcherCountsDistinctIDs feeds the watcher's fold the shape a
// sharded cluster produces: the same transaction id on several servers'
// chains, and ids it has already seen in an earlier poll.
func TestChainWatcherCountsDistinctIDs(t *testing.T) {
	id := func(b byte) (h blockbench.Hash) { h[0] = b; return h }
	w := &chainWatcher{seen: map[blockbench.Hash]struct{}{}}
	polls := [][]blockbench.Hash{
		{id(1), id(2), id(2), id(3)}, // id 2 committed on two shards
		{id(3), id(4)},               // id 3 surfaces again on another server
		{},
	}
	want := []int{3, 1, 0}
	for i, ids := range polls {
		if got := w.fold(ids); got != want[i] {
			t.Errorf("poll %d: %d new ids, want %d", i, got, want[i])
		}
	}
}

func TestRatioWithZeroDenominator(t *testing.T) {
	if v := ratio(5, 0); !v.NA {
		t.Errorf("ratio(5, 0) = %+v, want n/a", v)
	}
	if v := ratio(0, 4); v.NA || v.V != 0 {
		t.Errorf("ratio(0, 4) = %+v, want a measured 0", v)
	}
	if v := ratio(6, 4); v.NA || v.V != 1.5 {
		t.Errorf("ratio(6, 4) = %+v, want 1.5", v)
	}
	if got := formatValue(na()); got != "n/a" {
		t.Errorf("formatValue(n/a) = %q", got)
	}
	// A platform without the counters yields n/a for every ratio built on
	// them, never 0; the metrics the driver itself measures stay numbers.
	m := map[string]value{}
	counterMetrics(m, specs[0], &paced{rep: reportWith(100), due: 100, onChain: 100})
	for _, name := range []string{"store.gets_per_tx", "sharding.xshard_ratio", "raft.read_redirect_ratio", "consensus.txs_per_batch"} {
		if !m[name].NA {
			t.Errorf("%s = %+v without its counters, want n/a", name, m[name])
		}
	}
	if m["driver.offered_ratio"].NA || m["driver.offered_ratio"].V != 1 {
		t.Errorf("driver.offered_ratio = %+v, want 1", m["driver.offered_ratio"])
	}
	if m["driver.failed_share"].NA || m["driver.failed_share"].V != 0 {
		t.Errorf("driver.failed_share = %+v, want a measured 0", m["driver.failed_share"])
	}
}

func TestMedianAndWorseBy(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worseBy(lower, 10, 11); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("lower-is-better 10 -> 11 worse by %v, want 0.1", got)
	}
	if got := worseBy(higher, 10, 11); math.Abs(got+0.1) > 1e-9 {
		t.Errorf("higher-is-better 10 -> 11 worse by %v, want -0.1", got)
	}
}

// reportWith is a driver report with the given commit count and nothing
// else measured.
func reportWith(committed uint64) *blockbench.Report {
	return &blockbench.Report{Submitted: committed, Committed: committed, LatencyMean: 0.015,
		Counters: map[string]uint64{}, Stages: map[string]report.StageStat{"admit": {Count: 1, MeanS: 0.001}}}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestCatalogue checks the declared metrics: every name and unit
// well-formed, every name used once, every bound within the driver's
// limit.
func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestRunsEmitCatalogue drives one real (shortened) run of each kind and
// checks that what it emits is exactly what the catalogue declares.
func TestRunsEmitCatalogue(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 4-node cluster four times")
	}
	s, _ := specByName("cpuheavy-quorum")
	for _, c := range []struct {
		name     string
		run      runner
		defs     []metricDef
		measured float64
	}{
		{"end-to-end", runEndToEnd, endToEnd, 2},
		{"per-layer", runPerLayer, perLayer, 6},
	} {
		res, err := c.run(newRecorder(), s, 1, c.measured, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, p := range res.Problems {
			t.Errorf("%s: %s", c.name, p)
		}
		if res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("%s: attempted/failed = %d/%d", c.name, res.Attempted, res.Failed)
		}
		declared := map[string]bool{}
		for _, d := range c.defs {
			declared[d.Name] = true
			if _, ok := res.Metrics[d.Name]; !ok {
				t.Errorf("%s: metric %q is declared but not emitted", c.name, d.Name)
			}
		}
		for name := range res.Metrics {
			if !declared[name] {
				t.Errorf("%s: metric %q is emitted but not declared", c.name, name)
			}
		}
		for _, d := range endToEnd {
			if v := res.Metrics[d.Name]; c.name == "end-to-end" && (v.NA || v.V <= 0) {
				t.Errorf("end-to-end metric %q = %+v, want a positive number", d.Name, v)
			}
		}
	}
}

// benchmarkFile mirrors ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileEndToEnd `json:"end_to_end"`
	PerLayer   []filePerLayer `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type filePerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, s := range specs {
		f.Workloads = append(f.Workloads, fileWorkload{s.Name, s.Why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, fileEndToEnd{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, filePerLayer{d.Name, d.Unit, d.Better})
	}
	return f
}

// TestBenchmarkJSON checks that ../BENCHMARK.json names exactly what the
// program emits: the workloads, the end-to-end metrics with their units,
// directions and bounds, and the per-layer metrics.
func TestBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(wantBenchmarkFile(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestBenchmarkJSON -update` to write it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the catalogue; run `go test -run TestBenchmarkJSON -update`\ngot:\n%s\nwant:\n%s", path, got, want)
	}
	f := wantBenchmarkFile()
	if len(got) > 64<<10 || len(f.Workloads) < 2 || len(f.Workloads) > 8 || len(f.EndToEnd) > 16 || len(f.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json outside the driver's limits: %d bytes, %d workloads, %d end-to-end, %d per-layer",
			len(got), len(f.Workloads), len(f.EndToEnd), len(f.PerLayer))
	}
	setup := false
	for _, d := range f.EndToEnd {
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, w := range f.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || bytes.ContainsAny([]byte(w.Why), "\n\r") {
			t.Errorf("workload %q: malformed name or why (%d chars)", w.Name, len(w.Why))
		}
	}
}
