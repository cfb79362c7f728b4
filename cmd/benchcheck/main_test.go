package main

import (
	"strings"
	"testing"
)

// TestCompare runs baseline/new pairs through compare: each metric's
// direction, the default, family and unit tolerances, the ns/op noise
// floor, informational units and a tracked benchmark gone missing.
func TestCompare(t *testing.T) {
	cases := []struct {
		name         string
		bench        string
		base, fresh  result
		missing      bool // the new run lacks the benchmark
		fail         bool
		wantCompared int
	}{
		{"latency within tolerance", "BenchmarkRaftCommitLatency", result{"ms/commit": 2}, result{"ms/commit": 2.4}, false, false, 1},
		{"latency past tolerance", "BenchmarkRaftCommitLatency", result{"ms/commit": 2}, result{"ms/commit": 2.6}, false, true, 1},
		{"throughput gain", "BenchmarkShardScaling/shards=4", result{"tx/s": 1000}, result{"tx/s": 1500}, false, false, 1},
		{"throughput drop", "BenchmarkShardScaling/shards=4", result{"tx/s": 1000}, result{"tx/s": 700}, false, true, 1},
		{"ns/op under the noise floor", "BenchmarkExecScaling/W=1", result{"ns/op": 5e6}, result{"ns/op": 5e7}, false, false, 0},
		{"ns/op over the noise floor", "BenchmarkExecScaling/W=1", result{"ns/op": 20e6}, result{"ns/op": 30e6}, false, true, 1},
		{"informational units", "BenchmarkExecScaling/W=1", result{"B/op": 100, "allocs/op": 2}, result{"B/op": 900, "allocs/op": 20}, false, false, 0},
		{"family tolerance", "BenchmarkLSMPointRead", result{"ns/op": 20e6}, result{"ns/op": 35e6}, false, false, 1},
		{"missing tracked benchmark", "BenchmarkHTAPMix", result{"ns/op": 20e6}, nil, true, true, 0},
		{"EVM sort within its unit tolerance", "BenchmarkEVMSort/n=10000", result{"ms/native-ms": 50}, result{"ms/native-ms": 60}, false, false, 1},
		{"EVM sort on the interpreter before blocks", "BenchmarkEVMSort/n=10000", result{"ms/native-ms": 50}, result{"ms/native-ms": 70}, false, true, 1},
		{"EVM raw sort time under its family tolerance", "BenchmarkEVMSort/n=10000", result{"ms/sort": 8}, result{"ms/sort": 14}, false, false, 1},
		{"EVM raw sort time past its family tolerance", "BenchmarkEVMSort/n=10000", result{"ms/sort": 8}, result{"ms/sort": 17}, false, true, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fresh := map[string]result{"BenchmarkOther": {"ns/op": 1}}
			if !c.missing {
				fresh[c.bench] = c.fresh
			}
			lines, failures, compared := compare(map[string]result{c.bench: c.base}, fresh, 0.25)
			if got := len(failures) > 0; got != c.fail || compared != c.wantCompared {
				t.Errorf("failed %v (%q), compared %d; want failed %v, compared %d", got, failures, compared, c.fail, c.wantCompared)
			}
			if !strings.Contains(strings.Join(lines, "\n"), "BenchmarkOther") {
				t.Errorf("a benchmark with no baseline is not reported: %q", lines)
			}
		})
	}
}
