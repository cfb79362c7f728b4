package experiments

import (
	"fmt"
	"strconv"
	"time"

	"blockbench"
)

// macroWorkload builds the two macro benchmarks sized to the scale,
// through the workload registry.
func macroWorkload(name string, s Scale) blockbench.Workload {
	if name == "smallbank" {
		return sizedWorkload(name, 400/s.Shrink)
	}
	return sizedWorkload(name, 1000/s.Shrink)
}

// Fig5PeakAndRates reproduces Fig 5: peak throughput and latency for
// YCSB and Smallbank on 8 servers x 8 clients, plus the
// performance-vs-offered-rate sweep.
func Fig5PeakAndRates(s Scale) (*Result, error) {
	res := &Result{ID: "fig5", Title: "peak performance & rate sweep (8 servers, 8 clients)"}
	rates := []float64{8, 32, 128, 512}
	if s.Shrink > 1 {
		rates = []float64{128, 512}
	}
	for _, wname := range []string{"ycsb", "smallbank"} {
		for _, kind := range blockbench.Platforms() {
			var peakTput, peakLat float64
			for _, rate := range rates {
				w := macroWorkload(wname, s)
				r, err := measure(kind, 8, 8, w, blockbench.RunConfig{
					Threads: 4, Rate: rate, Duration: s.Duration,
				}, nil)
				if err != nil {
					return nil, fmt.Errorf("fig5 %s/%s@%v: %w", kind, wname, rate, err)
				}
				res.addf("%-12s %-10s rate=%4.0f tx/s/client -> %7.1f tx/s, lat %6.3fs",
					kind, wname, rate, r.Throughput, r.LatencyMean)
				if r.Throughput > peakTput {
					peakTput, peakLat = r.Throughput, r.LatencyMean
				}
			}
			res.addf("%-12s %-10s PEAK: %7.1f tx/s, latency %6.3fs", kind, wname, peakTput, peakLat)
		}
	}
	return res, nil
}

// Fig6QueueLength reproduces Fig 6: the client's outstanding-request
// queue over time at low (8 tx/s) and saturating (512 tx/s) rates.
func Fig6QueueLength(s Scale) (*Result, error) {
	res := &Result{ID: "fig6", Title: "client request queue length over time (8 clients, 8 servers)"}
	for _, rate := range []float64{8, 512} {
		for _, kind := range blockbench.Platforms() {
			w := macroWorkload("ycsb", s)
			r, err := measure(kind, 8, 8, w, blockbench.RunConfig{
				Threads: 4, Rate: rate, Duration: s.Duration,
			}, nil)
			if err != nil {
				return nil, err
			}
			res.addf("%-12s rate=%3.0f queue: %s", kind, rate, fmtSeries(r.QueueSeries, 4))
		}
	}
	return res, nil
}

func scaleSweep(s Scale, full []int, quick []int) []int {
	if s.Shrink > 1 {
		return quick
	}
	return full
}

// Fig7ScaleTogether reproduces Fig 7: clients and servers grow together.
func Fig7ScaleTogether(s Scale) (*Result, error) {
	return scaleExperiment("fig7", "scalability, clients = servers (YCSB)", "ycsb",
		scaleSweep(s, []int{1, 4, 8, 16, 20}, []int{4, 16}), true, s)
}

// Fig8ScaleServers reproduces Fig 8: 8 clients, servers grow.
func Fig8ScaleServers(s Scale) (*Result, error) {
	return scaleExperiment("fig8", "scalability, 8 clients (YCSB)", "ycsb",
		scaleSweep(s, []int{8, 16, 24, 32}, []int{8, 24}), false, s)
}

// Fig19SmallbankScale reproduces Fig 19: the Smallbank scalability sweep
// (Hyperledger fails at smaller sizes than with YCSB).
func Fig19SmallbankScale(s Scale) (*Result, error) {
	return scaleExperiment("fig19", "scalability, clients = servers (Smallbank)", "smallbank",
		scaleSweep(s, []int{1, 4, 8, 16, 20}, []int{4, 16}), true, s)
}

func scaleExperiment(id, title, wname string, sizes []int, matchClients bool, s Scale) (*Result, error) {
	res := &Result{ID: id, Title: title}
	for _, kind := range blockbench.Platforms() {
		for _, n := range sizes {
			clients := 8
			if matchClients {
				clients = n
			}
			w := macroWorkload(wname, s)
			r, err := measure(kind, n, clients, w, blockbench.RunConfig{
				Threads: 2, Rate: 64, Duration: s.Duration,
			}, nil)
			if err != nil {
				return nil, err
			}
			res.addf("%-12s nodes=%2d clients=%2d -> %7.1f tx/s, lat %6.3fs, dropped=%d",
				kind, n, clients, r.Throughput, r.LatencyMean, r.MsgsDropped)
		}
	}
	return res, nil
}

// Fig13cDoNothing reproduces Fig 13c: DoNothing vs YCSB vs Smallbank
// throughput, isolating the consensus layer from execution cost.
func Fig13cDoNothing(s Scale) (*Result, error) {
	res := &Result{ID: "fig13c", Title: "consensus isolation: DoNothing vs YCSB vs Smallbank (8x8)"}
	for _, kind := range blockbench.Platforms() {
		for _, wname := range []string{"smallbank", "ycsb", "donothing"} {
			var w blockbench.Workload
			if wname == "donothing" {
				w = blockbench.MustWorkload(wname, nil)
			} else {
				w = macroWorkload(wname, s)
			}
			r, err := measure(kind, 8, 8, w, blockbench.RunConfig{
				Threads: 4, Rate: 512, Duration: s.Duration,
			}, nil)
			if err != nil {
				return nil, err
			}
			res.addf("%-12s %-10s -> %7.1f tx/s", kind, wname, r.Throughput)
		}
	}
	return res, nil
}

// Fig15BlockSizes reproduces Fig 15: block generation rate at small
// (0.5x), medium (1x) and large (2x) block sizes. Ethereum tunes
// gasLimit, Hyperledger batchSize, Parity stepDuration.
func Fig15BlockSizes(s Scale) (*Result, error) {
	res := &Result{ID: "fig15", Title: "block generation rate vs block size"}
	type sizing struct {
		label string
		mul   float64
	}
	for _, kind := range blockbench.Platforms() {
		for _, sz := range []sizing{{"small", 0.5}, {"medium", 1}, {"large", 2}} {
			w := macroWorkload("ycsb", s)
			r, err := measure(kind, 8, 8, w, blockbench.RunConfig{
				Threads: 4, Rate: 256, Duration: s.Duration,
			}, func(cfg *blockbench.ClusterConfig) {
				scaled := func(d time.Duration) string {
					return time.Duration(float64(d) * sz.mul).String()
				}
				switch kind {
				case blockbench.Ethereum:
					cfg.Options["gas"] = strconv.Itoa(int(1_000_000 * sz.mul))
					// Bigger blocks take proportionally longer to mine:
					// geth's difficulty targets a constant gas throughput.
					cfg.Options["block"] = scaled(100 * time.Millisecond)
				case blockbench.Parity:
					cfg.Options["step"] = scaled(40 * time.Millisecond)
				case blockbench.Hyperledger, blockbench.Quorum:
					// Both batch by count: Fabric's batchSize, Raft's
					// per-entry batch.
					cfg.Options["batch"] = strconv.Itoa(int(20 * sz.mul))
					cfg.Options["batchtimeout"] = scaled(10 * time.Millisecond)
				}
			})
			if err != nil {
				return nil, err
			}
			res.addf("%-12s %-6s -> %5.2f blocks/s (%7.1f tx/s)", kind, sz.label, r.BlockRate(), r.Throughput)
		}
	}
	return res, nil
}

// Fig17LatencyCDF reproduces Fig 17: the latency distribution for YCSB
// and Smallbank at 8x8.
func Fig17LatencyCDF(s Scale) (*Result, error) {
	res := &Result{ID: "fig17", Title: "latency CDF (8x8)"}
	for _, kind := range blockbench.Platforms() {
		for _, wname := range []string{"ycsb", "smallbank"} {
			w := macroWorkload(wname, s)
			r, err := measure(kind, 8, 8, w, blockbench.RunConfig{
				Threads: 4, Rate: 64, Duration: s.Duration,
			}, nil)
			if err != nil {
				return nil, err
			}
			res.addf("%-12s %-10s p10=%.3f p50=%.3f p90=%.3f p99=%.3f (s)",
				kind, wname, quantileAt(r, 0.10), r.LatencyP50, r.LatencyP90, r.LatencyP99)
		}
	}
	return res, nil
}

func quantileAt(r *blockbench.Report, q float64) float64 {
	if len(r.LatencyCDFValues) == 0 {
		return 0
	}
	idx := int(q * float64(len(r.LatencyCDFValues)))
	if idx >= len(r.LatencyCDFValues) {
		idx = len(r.LatencyCDFValues) - 1
	}
	return r.LatencyCDFValues[idx]
}

// Fig18Queue20 reproduces Fig 18: the client queue at 20 servers and 20
// clients, where Hyperledger's consensus stalls and the queue never
// drains.
func Fig18Queue20(s Scale) (*Result, error) {
	res := &Result{ID: "fig18", Title: "queue length, 20 servers / 20 clients"}
	n := 20
	if s.Shrink > 1 {
		n = 8
	}
	for _, kind := range blockbench.Platforms() {
		w := macroWorkload("ycsb", s)
		r, err := measure(kind, n, n, w, blockbench.RunConfig{
			Threads: 4, Rate: 512, Duration: s.Duration,
		}, nil)
		if err != nil {
			return nil, err
		}
		res.addf("%-12s queue: %s (committed %d, dropped %d)",
			kind, fmtSeries(r.QueueSeries, 4), r.Committed, r.MsgsDropped)
	}
	return res, nil
}
