// Command bench is the repository's benchmark: six workloads that each
// isolate a layer of the simulated blockchain stack (the paper's method,
// applied to this harness), measured end to end at a paced rate and at
// peak, plus an outside-in ledger of per-layer numbers. It claims no
// gain; it is the rig later claims are measured with. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is the measured window of one run; BENCHMARK.json's
// run_seconds is checked against it.
const defaultSeconds = 10

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloads = flag.String("workload", "", "comma-separated workload names (default: all six)")
		seed      = flag.Int64("seed", 42, "seed for the driver's workload choices and the bench-local workload")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured seconds per workload run: one paced phase (-trace 0) or three equal phases (-trace 1)")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics (counters, traced paced phase, peak phase, layer probes)")
		layers    = flag.Bool("layers", false, "run only the layer probes")
		selfcheck = flag.Bool("selfcheck", false, "run the selected end-to-end set twice and compare against the bounds")
		outDir    = flag.String("out", "out", "directory for spans.json and scratch data (inside the checkout)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload a,b] [-seed N] [-seconds S] [-trace 0|1] [-layers] [-selfcheck] [-out DIR]")
		return 2
	}
	selected := specs
	if *workloads != "" {
		selected = nil
		for _, name := range strings.Split(*workloads, ",") {
			s, ok := specByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q; known: %s\n", name, strings.Join(specNames(), ", "))
				return 2
			}
			selected = append(selected, s)
		}
	}

	fmt.Printf("bench: GOMAXPROCS=%d NumCPU=%d %s/%s %s seed=%d seconds=%g trace=%d\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version(), *seed, *seconds, *trace)
	fmt.Println("bench: injected delays (product defaults, fixed): simnet 200us + U[0,300us) at 1 Gb/s, RPC 200us, " +
		"confirm poll 7ms, batch 20 tx / 10 ms (Raft) or 15 ms (PBFT); " + fmt.Sprint(nodes) + " nodes")

	rec := newRecorder()
	defer func() {
		if err := rec.write(*outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing spans:", err)
		}
	}()

	switch {
	case *layers:
		vals, problems := runProbes(rec, *outDir)
		res := &result{Workload: "layers", Metrics: vals, Problems: problems, Attempted: uint64(len(probes)), Failed: uint64(len(problems))}
		printResult(res, probeDefs)
		return emit([]*result{res}, probeDefs)
	case *selfcheck:
		return selfCheck(rec, selected, *seed, *seconds, *outDir)
	}
	run, defs := runEndToEnd, endToEnd
	if *trace == 1 {
		run, defs = runPerLayer, perLayer
	}
	results, err := runSet(rec, selected, run, defs, *seed, *seconds, *outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return emit(results, defs)
}

type runner func(rec *recorder, s spec, seed int64, measured float64, outDir string) (*result, error)

// runSet runs the selected workloads one after another and prints each
// result as it completes.
func runSet(rec *recorder, selected []spec, run runner, defs []metricDef, seed int64, measured float64, outDir string) ([]*result, error) {
	var results []*result
	for _, s := range selected {
		t0 := time.Now()
		res, err := run(rec, s, seed, measured, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		res.Elapsed = time.Since(t0)
		printResult(res, defs)
		results = append(results, res)
	}
	return results, nil
}

// selfCheck runs the end-to-end set twice in this process and compares
// the two values of every metric on every workload against the metric's
// bound, in both directions: two runs of the same code must agree.
func selfCheck(rec *recorder, selected []spec, seed int64, measured float64, outDir string) int {
	var sets [2][]*result
	for i := range sets {
		fmt.Printf("\n#### selfcheck: set %d of 2\n", i+1)
		var err error
		if sets[i], err = runSet(rec, selected, runEndToEnd, endToEnd, seed, measured, outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Printf("\n#### selfcheck: spread between the two sets (|a-b| as a share of the better one) against the bound\n")
	code := 0
	for w := range selected {
		a, b := sets[0][w], sets[1][w]
		for _, d := range endToEnd {
			spread := math.Max(worseBy(d, a.Metrics[d.Name].V, b.Metrics[d.Name].V), worseBy(d, b.Metrics[d.Name].V, a.Metrics[d.Name].V))
			verdict := "ok"
			if spread > d.Bound {
				verdict, code = "DISAGREE", 1
			}
			fmt.Printf("  %-24s %-18s %12.4f %12.4f %-6s spread %6.2f%% bound %5.1f%% %s\n", a.Workload, d.Name,
				a.Metrics[d.Name].V, b.Metrics[d.Name].V, d.Unit, 100*spread, 100*d.Bound, verdict)
		}
	}
	// The machine-readable line carries the second set; an incorrect run
	// in either set fails the check.
	for _, r := range sets[0] {
		if !r.correct() {
			code = 1
		}
	}
	if c := emit(sets[1], endToEnd); c != 0 {
		code = c
	}
	return code
}

func specNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// printResult prints one workload's metrics by name, with units and
// sample counts.
func printResult(r *result, defs []metricDef) {
	fmt.Printf("\n== %s (%.1fs)  attempted=%d failed=%d correct=%v\n", r.Workload, r.Elapsed.Seconds(), r.Attempted, r.Failed, r.correct())
	for _, d := range defs {
		v := r.Metrics[d.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Printf("  %-28s %14s %-6s %-9s %s\n", d.Name, formatValue(v), d.Unit, n, d.Moves)
	}
	for _, p := range r.Problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}
}

// wireMetric and wireResult are the machine-readable last line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

func toWire(r *result, defs []metricDef) wireResult {
	w := wireResult{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]wireMetric, len(defs))}
	for _, d := range defs {
		w.Metrics[d.Name] = wireMetric{Value: r.Metrics[d.Name].V, Unit: d.Unit}
	}
	return w
}

// emit prints the last line of standard output: for one workload the
// result object itself; for several, the objects keyed by workload with
// an explicit null claim — the benchmark measures, it asserts no gain.
func emit(results []*result, defs []metricDef) int {
	code := 0
	for _, r := range results {
		if !r.correct() {
			code = 1
		}
	}
	var line []byte
	if len(results) == 1 {
		line, _ = json.Marshal(toWire(results[0], defs))
	} else {
		all := make(map[string]wireResult, len(results))
		for _, r := range results {
			all[r.Workload] = toWire(r, defs)
		}
		line, _ = json.Marshal(struct {
			Results map[string]wireResult `json:"results"`
			Claim   any                   `json:"claim"`
		}{all, nil})
	}
	fmt.Println()
	fmt.Println(string(line))
	return code
}
