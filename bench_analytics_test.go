// Analytics benchmarks: the RPC-walk-vs-columnar-index latency series
// behind the paper's §3.4.2 queries, and the HTAP interference mix.
// Both families are tracked by cmd/benchcheck (BENCH_ci.json), so the
// indexed path's order-of-magnitude win over the per-block RPC walk is
// gated against regression.
package blockbench_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"blockbench"
)

// BenchmarkAnalyticsQuery measures Q1 (total tx value in range) and Q2
// (largest balance change) at growing history sizes, once over the
// paper's baseline read path (one 50µs RPC per block) and once over the
// server-side columnar index (one round trip per query). The preloaded
// chain and both query ranges are identical across the two modes, and
// the modes return identical results — only the read path differs, so
// us/q1 and us/q2 expose exactly the index's win.
func BenchmarkAnalyticsQuery(b *testing.B) {
	for _, blocks := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			a := &blockbench.Analytics{Blocks: blocks, TxPerBlock: 3, Accounts: 8}
			c, err := blockbench.NewCluster(blockbench.ClusterConfig{
				Kind:       blockbench.Ethereum,
				Nodes:      1,
				Contracts:  a.Contracts(),
				RPCLatency: 50 * time.Microsecond,
			}, 8)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Stop()
			// Preload by direct append; the cluster stays unstarted so the
			// chain is frozen and no miner competes with the queries.
			if err := a.Init(c, rand.New(rand.NewSource(7))); err != nil {
				b.Fatal(err)
			}
			client := c.Client(0)
			// Stay under the confirmation depth so the indexed path's
			// committed-only clamp covers the same range as the RPC walk.
			to := c.Height() - 3
			acct := a.Account(0)

			for _, mode := range []string{"rpc", "indexed"} {
				b.Run(mode, func(b *testing.B) {
					a.Mode = mode
					// A single indexed query costs sub-millisecond end to
					// end, so one sample mostly measures the 50µs simulated
					// RPC sleep's timer-granularity overshoot; average over
					// enough repetitions that the reported mean is signal.
					// One rpc walk is thousands of such sleeps — already
					// self-averaging (and far too slow to repeat).
					reps := 1
					if mode == "indexed" {
						reps = 100
					}
					var q1us, q2us float64
					var check uint64
					for i := 0; i < b.N; i++ {
						for r := 0; r < reps; r++ {
							v1, d1, err := a.Q1(client, 1, to)
							if err != nil {
								b.Fatal(err)
							}
							v2, d2, err := a.Q2(client, acct, 1, to)
							if err != nil {
								b.Fatal(err)
							}
							if v1 == 0 {
								b.Fatal("q1 scanned no value")
							}
							check += v1 + v2
							q1us += float64(d1.Microseconds())
							q2us += float64(d2.Microseconds())
						}
					}
					_ = check
					b.ReportMetric(q1us/float64(b.N*reps), "us/q1")
					b.ReportMetric(q2us/float64(b.N*reps), "us/q2")
				})
			}
		})
	}
}

// BenchmarkHTAPMix runs the hybrid workload end to end on a 3-node
// quorum cluster: the driver floods OLTP transfers while every 8th
// generated operation first runs one synchronous analytical scan at its
// client's server. tx/s is the OLTP side under analytical interference;
// q/s is the analytical side under commit pressure.
func BenchmarkHTAPMix(b *testing.B) {
	var tput, qps float64
	for i := 0; i < b.N; i++ {
		w := blockbench.MustWorkload("htap", blockbench.WorkloadOptions{"qevery": "8"})
		c, err := blockbench.NewCluster(benchConfig(blockbench.Quorum, 3, w), 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Init(c, rand.New(rand.NewSource(5))); err != nil {
			c.Stop()
			b.Fatal(err)
		}
		c.Start()
		r, err := blockbench.Run(c, w, blockbench.RunConfig{
			Clients: 4, Threads: 2, Rate: 400,
			Duration: 2 * time.Second, SkipInit: true,
		})
		c.Stop()
		if err != nil {
			b.Fatal(err)
		}
		if r.AnalyticsQueries() == 0 {
			b.Fatal("no analytical queries reached the index")
		}
		tput += r.Throughput
		qps += float64(r.AnalyticsQueries()) / r.Duration.Seconds()
	}
	b.ReportMetric(tput/float64(b.N), "tx/s")
	b.ReportMetric(qps/float64(b.N), "q/s")
}
