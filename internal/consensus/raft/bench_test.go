package raft

import (
	"testing"
	"time"

	"blockbench/internal/types"
)

// BenchmarkRaftCommitLatency measures single-transaction commit latency
// (pool admission → receipt on the leader) on a 3-replica group. The
// engine proposes and replicates on the pool notification, so latency
// is bounded by message round trips, not by the heartbeat tick (the
// retired tick-paced baseline's last number is in EXPERIMENTS.md).
// Reported as ms/commit; the sub-benchmark name is the tracked
// BENCH_ci.json row.
func BenchmarkRaftCommitLatency(b *testing.B) {
	b.Run("pipelined", func(b *testing.B) {
		opts := DefaultOptions()
		opts.ElectionTimeout = 150 * time.Millisecond
		opts.Heartbeat = 20 * time.Millisecond
		opts.BatchSize = 1 // every submission is a full batch
		opts.BatchTimeout = time.Millisecond
		c := newTestCluster(b, 3, opts)
		l := c.waitLeader(b, nil)

		waitReceipt := func(id types.Hash) {
			deadline := time.Now().Add(10 * time.Second)
			for {
				if _, ok := c.nodes[l].chain.Receipt(id); ok {
					return
				}
				if time.Now().After(deadline) {
					b.Fatal("commit timed out")
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		// Warm up one commit so the leader's pipeline state settles.
		waitReceipt(c.submit(1_000_000, nil).Hash())

		var total time.Duration
		const perIter = 10 // moderate load: sequential singles
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < perIter; j++ {
				tx := c.submit(i*perIter+j, nil)
				start := time.Now()
				waitReceipt(tx.Hash())
				total += time.Since(start)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N*perIter), "ms/commit")
	})
}

// BenchmarkRaftLongRunMemory measures the resident log length over a
// long committed run with compaction off versus a small retention
// window: with retention the log must stay bounded by the window (plus
// the in-flight proposal window) no matter how long the run, which is
// what keeps long macro runs from re-encoding an ever-growing slice.
func BenchmarkRaftLongRunMemory(b *testing.B) {
	const entries = 600
	for _, mode := range []struct {
		name   string
		retain int
	}{
		{"retain-off", 0},
		{"retain-64", 64},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var maxLog float64
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions()
				opts.ElectionTimeout = 150 * time.Millisecond
				opts.Heartbeat = 10 * time.Millisecond
				opts.BatchSize = 1
				opts.BatchTimeout = time.Millisecond
				opts.Retain = mode.retain // 0: compaction off
				c := newTestCluster(b, 3, opts)
				l := c.waitLeader(b, nil)
				var last *types.Transaction
				for j := 0; j < entries; j++ {
					last = c.submit(i*entries+j, nil)
					if lg := logLen(c.nodes[l].e); float64(lg) > maxLog {
						maxLog = float64(lg)
					}
					if j%50 == 49 { // pace: let commits drain the window
						c.waitCommitted(b, []*types.Transaction{last}, nil)
					}
				}
				c.waitCommitted(b, []*types.Transaction{last}, nil)
				if lg := logLen(c.nodes[l].e); float64(lg) > maxLog {
					maxLog = float64(lg)
				}
				if mode.retain > 0 && maxLog > float64(mode.retain+window) {
					b.Fatalf("resident log %v exceeded retention window %d (+%d in flight)",
						maxLog, mode.retain, window)
				}
				for _, tn := range c.nodes {
					tn.e.Stop()
				}
			}
			b.ReportMetric(maxLog, "log-entries-max")
		})
	}
}
