package blockbench_test

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"blockbench"
	"blockbench/internal/sharding"
)

// fastShardedCluster builds (without starting) a sharded cluster with
// test-fast timings.
func fastShardedCluster(t *testing.T, nodes, shards, clients int, w blockbench.Workload) *blockbench.Cluster {
	t.Helper()
	cfg := blockbench.TestingConfig(blockbench.Sharded, nodes)
	cfg.Contracts = w.Contracts()
	cfg.Options["shards"] = strconv.Itoa(shards)
	c, err := blockbench.NewCluster(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestShardedDriverRun drives the fifth platform through the standard
// run handle: a YCSB run (single-key, so pure fast path) commits
// through per-shard consensus and the report carries the xshard counter
// family — the preset seam end to end with zero driver edits.
func TestShardedDriverRun(t *testing.T) {
	w := blockbench.MustWorkload("ycsb", blockbench.WorkloadOptions{"records": "100"})
	c := fastShardedCluster(t, 4, 2, 4, w)
	defer c.Stop()
	if err := w.Init(c, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	c.Start()

	r, err := blockbench.Run(c, w, blockbench.RunConfig{
		Clients: 4, Threads: 2, Rate: 200, Duration: 2 * time.Second,
		SkipInit: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatalf("no transactions committed: %v", r)
	}
	if r.Counter("xshard.fastpath") == 0 {
		t.Fatalf("fast path never taken: %v", r.Counters)
	}
	if r.Counter("xshard.txs") != 0 {
		t.Fatalf("single-key YCSB coordinated 2PC: %v", r.Counters)
	}
	if r.CrossShardRatio() != 0 {
		t.Fatalf("cross-shard ratio %.2f for a single-key workload", r.CrossShardRatio())
	}
	for _, key := range []string{"xshard.commits", "xshard.aborts", "xshard.retries"} {
		if _, ok := r.Counters[key]; !ok {
			t.Fatalf("report missing %s: %v", key, r.Counters)
		}
	}
}

// TestShardedLeaderCrashAbortRetry crashes a shard's consensus leader
// mid-run through the declarative event timeline: cross-shard prepares
// to the dead shard time out into abort-retry, and after recovery the
// retries land — the run ends with both retries and commits on the
// books.
func TestShardedLeaderCrashAbortRetry(t *testing.T) {
	w := blockbench.MustWorkload("smallbank", blockbench.WorkloadOptions{"accounts": "40"})
	// Two single-node shard groups: node 1 IS shard 1's leader, so the
	// timeline can name it without discovering leadership first.
	c := fastShardedCluster(t, 2, 2, 2, w)
	defer c.Stop()
	if err := w.Init(c, rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	c.Start()

	r, err := blockbench.Run(c, w, blockbench.RunConfig{
		Clients: 2, Threads: 2, Rate: 150, Duration: 2500 * time.Millisecond,
		SkipInit: true,
		Events: []blockbench.Event{
			blockbench.CrashNode(500*time.Millisecond, 1),
			blockbench.RecoverNode(1200*time.Millisecond, 1),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Events) != 2 {
		t.Fatalf("timeline fired %d of 2 events", len(r.Events))
	}
	if r.Counter("xshard.txs") == 0 {
		t.Fatal("no cross-shard transactions were coordinated")
	}
	if r.Counter("xshard.retries") == 0 {
		t.Fatalf("crashed shard leader produced no abort-retries: %v", r.Counters)
	}
	if r.Counter("xshard.commits") == 0 {
		t.Fatalf("no cross-shard commit after recovery: %v", r.Counters)
	}
	if r.Committed == 0 {
		t.Fatal("nothing committed across the whole run")
	}
}

// TestPartitionerSkew draws 10k operations from YCSB's zipfian request
// distribution and buckets their keys (via OpKeys) across the
// hash partitioner: even under zipfian skew, no shard may see more than
// 2x the mean load — hashing decorrelates popularity from placement.
func TestPartitionerSkew(t *testing.T) {
	w := blockbench.MustWorkload("ycsb", blockbench.WorkloadOptions{
		"records": "1000", "distribution": "zipfian"})
	rng := rand.New(rand.NewSource(99))
	for _, shards := range []int{2, 4, 8} {
		p := sharding.NewHashPartitioner(shards)
		counts := make([]int, shards)
		const draws = 10_000
		for i := 0; i < draws; i++ {
			op := w.Next(i%4, rng)
			keys := blockbench.OpKeys(op)
			if len(keys) == 0 {
				t.Fatalf("OpKeys returned no keys for %s.%s", op.Contract, op.Method)
			}
			for _, k := range keys {
				counts[p.Shard(k)]++
			}
		}
		mean := float64(draws) / float64(shards)
		for s, n := range counts {
			if float64(n) > 2*mean {
				t.Fatalf("S=%d: shard %d drew %d of %d (>2x mean %.0f): %v",
					shards, s, n, draws, mean, counts)
			}
		}
		t.Logf("S=%d: shard loads %v (mean %.0f)", shards, counts, mean)
	}
}

// TestSmallbankKeyOfCrossShardRate: Smallbank's operation keys predict
// the workload's cross-shard touch rate — about half of the two-account
// procedures (1/3 of the mix) cross a 2-shard split, and the observed
// rate from 10k draws must sit in a sane band around it.
func TestSmallbankKeyOfCrossShardRate(t *testing.T) {
	w := blockbench.MustWorkload("smallbank", blockbench.WorkloadOptions{"accounts": "1000"})
	p := sharding.NewHashPartitioner(2)
	rng := rand.New(rand.NewSource(7))
	cross, total := 0, 10_000
	for i := 0; i < total; i++ {
		keys := blockbench.OpKeys(w.Next(i%4, rng))
		seen := map[int]bool{}
		for _, k := range keys {
			seen[p.Shard(k)] = true
		}
		if len(seen) > 1 {
			cross++
		}
	}
	rate := float64(cross) / float64(total)
	// 3 of 6 procedures take two accounts; a uniform pair crosses a
	// 2-shard hash split about half the time -> ~25% overall.
	if rate < 0.15 || rate > 0.35 {
		t.Fatalf("cross-shard touch rate %.3f outside [0.15, 0.35]", rate)
	}
	t.Logf("smallbank cross-shard touch rate at S=2: %.1f%%", 100*rate)
}
