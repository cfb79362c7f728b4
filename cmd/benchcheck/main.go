// benchcheck compares a fresh benchmark run against a committed
// baseline and fails on performance regressions. Both files hold go
// test2json NDJSON, as written by `make bench` (BENCH_ci.json): one
// event per line, with the benchmark result lines in the output events.
//
//	benchcheck -baseline BENCH_ci.json -new BENCH_new.json [-tol 0.25]
//
// Only the tracked benchmark families are gated (raft commit latency,
// shard scaling, exec scaling, txpool contention, LSM point-read and
// range-scan latency, flat-cache hit latency, analytics query latency,
// the HTAP mix, the lifecycle-trace overhead sweep and the EVM
// quicksort — the perf tentpoles of past PRs); the figure smoke
// benchmarks measure fixed-duration experiment runs and carry no
// regression signal. Within a tracked result, throughput metrics (…/s)
// must not drop by more than the tolerance and latency metrics (ns/op,
// ms/…) must not grow by more than the tolerance — the -tol flag's, a
// family's (familyTol) or a metric's own (unitTol). ns/op below a noise
// floor is skipped — at -benchtime 1x a sub-10ms measurement is
// scheduler jitter, not signal. A tracked benchmark present in the
// baseline but missing from the fresh run fails the check: losing a
// tracked series is itself a regression.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// trackedPrefixes names the gated benchmark families.
var trackedPrefixes = []string{
	"BenchmarkRaftCommitLatency",
	"BenchmarkShardScaling",
	"BenchmarkExecScaling",
	"BenchmarkPoolContention",
	"BenchmarkLSMPointRead",
	"BenchmarkLSMRangeScan",
	"BenchmarkFlatCacheHit",
	"BenchmarkAnalyticsQuery",
	"BenchmarkHTAPMix",
	"BenchmarkTraceOverhead",
	"BenchmarkEVMSort",
}

// familyTol widens the tolerance for families whose metrics are
// microsecond-scale storage latencies: on a shared CI runner those
// jitter by tens of percent with cache and scheduler luck, so the gate
// only needs to catch algorithmic regressions (losing the bloom filter
// or the sparse index moves point reads by an order of magnitude, not
// by 30%). Families not listed use the -tol flag.
var familyTol = map[string]float64{
	"BenchmarkLSMPointRead": 1.0,
	"BenchmarkLSMRangeScan": 1.0,
	"BenchmarkFlatCacheHit": 1.0,
	// Indexed analytics query times embed a simulated-RPC sleep whose
	// timer-granularity overshoot moves sub-millisecond means by whole
	// multiples under runner load. The gap the gate protects is the
	// ~1000x between the indexed path and the per-block RPC walk, so
	// 400% of headroom still catches any real regression (losing the
	// index moves the metric by three orders of magnitude, not 5x).
	"BenchmarkAnalyticsQuery": 4.0,
	// The EVM quicksort's times move with the host (a shared 2 vCPU
	// host slows a process by up to 1.8x); its gated figure is
	// ms/native-ms, below.
	"BenchmarkEVMSort": 1.0,
}

// unitTol is the tolerance of one metric, over its family's.
// ms/native-ms is BenchmarkEVMSort's fastest sort over the fastest
// native sort beside it. On a shared 2 vCPU host, over -benchtime 1x
// runs, it read 48.6–57.4 (n=10000) and 3.29–3.97 (n=1000) for the
// block-metered interpreter and 65.7–78.1 and 4.40–5.12 for the one
// before it, while the raw ms/sort of such runs overlapped (7.9–15.0
// against 11.0–17.9 ms at n=10000).
var unitTol = map[string]float64{
	"ms/native-ms": 0.25,
}

// tolFor returns the tolerance for one metric of one benchmark.
func tolFor(name, unit string, def float64) float64 {
	if t, ok := unitTol[unit]; ok {
		return t
	}
	for prefix, t := range familyTol {
		if strings.HasPrefix(name, prefix) {
			return t
		}
	}
	return def
}

// noiseFloorNs is the smallest baseline ns/op worth gating: below it a
// single -benchtime 1x iteration measures jitter.
const noiseFloorNs = 10e6

// result is one benchmark's metrics: unit -> value.
type result map[string]float64

type event struct {
	Action string
	Test   string
	Output string
}

func tracked(name string) bool {
	for _, p := range trackedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// parse reads a test2json file and extracts the tracked benchmark
// results. The result line looks like
//
//	BenchmarkX/sub-8  \t       1\t  27445708 ns/op\t 2.700 ms/commit\t ...
//
// i.e. tab-separated "value unit" pairs after the name and iteration
// count; the event's Test field names the benchmark without the
// GOMAXPROCS suffix, so it is the stable key.
func parse(path string) (map[string]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			continue // non-JSON noise must not kill the gate
		}
		if ev.Action != "output" || !tracked(ev.Test) || !strings.Contains(ev.Output, "ns/op") {
			continue
		}
		// The result line may or may not lead with the benchmark name
		// (test2json splits writes unpredictably), so scan every
		// tab-separated field for "value unit" pairs; the name and the
		// iteration count fields fail the shape check and fall out.
		fields := strings.Split(strings.TrimSuffix(ev.Output, "\n"), "\t")
		r := make(result)
		for _, field := range fields {
			parts := strings.Fields(field)
			if len(parts) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(parts[0], 64)
			if err != nil {
				continue
			}
			r[parts[1]] = v
		}
		if len(r) > 0 {
			out[ev.Test] = r
		}
	}
	return out, sc.Err()
}

// direction classifies a metric unit: +1 higher-is-better (rates),
// -1 lower-is-better (latencies, sizes), 0 not gated.
func direction(unit string) int {
	switch {
	case strings.HasSuffix(unit, "/s"):
		return +1
	case unit == "ns/op" || strings.HasPrefix(unit, "ms/") || strings.HasPrefix(unit, "us/"):
		return -1
	default:
		return 0 // B/op, allocs/op, conflicts/blk, xshard%: informational
	}
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_ci.json", "committed baseline (test2json NDJSON)")
	newPath := flag.String("new", "BENCH_new.json", "fresh run to check (test2json NDJSON)")
	tol := flag.Float64("tol", 0.25, "allowed relative regression per metric")
	flag.Parse()

	baseline, err := parse(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: baseline: %v\n", err)
		os.Exit(2)
	}
	fresh, err := parse(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: new run: %v\n", err)
		os.Exit(2)
	}
	if len(baseline) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no tracked benchmarks in %s\n", *baselinePath)
		os.Exit(2)
	}

	lines, failures, compared := compare(baseline, fresh, *tol)
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("\nbenchcheck: %d metric(s) compared, %d failure(s), tolerance %.0f%%\n",
		compared, len(failures), 100**tol)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "benchcheck: %s\n", f)
		}
		os.Exit(1)
	}
}

// compare checks every tracked metric of baseline against fresh. It
// returns one report line per metric compared or new benchmark, the
// failures, and how many metrics it compared.
func compare(baseline, fresh map[string]result, tol float64) (lines, failures []string, compared int) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := fresh[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: tracked benchmark missing from new run", name))
			continue
		}
		units := make([]string, 0, len(base))
		for u := range base {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, unit := range units {
			dir := direction(unit)
			if dir == 0 {
				continue
			}
			bv := base[unit]
			nv, ok := cur[unit]
			if !ok || bv <= 0 {
				continue
			}
			if unit == "ns/op" && bv < noiseFloorNs {
				continue
			}
			compared++
			var rel float64
			if dir > 0 {
				rel = (bv - nv) / bv // throughput drop
			} else {
				rel = (nv - bv) / bv // latency growth
			}
			status := "ok"
			if t := tolFor(name, unit, tol); rel > t {
				status = "FAIL"
				kind := "throughput dropped"
				if dir < 0 {
					kind = "latency grew"
				}
				failures = append(failures, fmt.Sprintf("%s: %s %.1f%% (%s %.4g -> %.4g, tolerance %.0f%%)",
					name, kind, 100*rel, unit, bv, nv, 100*t))
			}
			lines = append(lines, fmt.Sprintf("%-60s %12s %14.4g %14.4g %+7.1f%%  %s", name, unit, bv, nv, -100*rel*float64(dir), status))
		}
	}
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			lines = append(lines, fmt.Sprintf("%-60s (new benchmark, no baseline)", name))
		}
	}
	return lines, failures, compared
}
