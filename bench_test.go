// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, each running a shrunk version of the corresponding
// experiment and reporting the headline metric. The full-size series are
// regenerated by cmd/experiments (see DESIGN.md's experiment index);
// these benches exist so `go test -bench=.` exercises every experiment
// path and tracks regressions in the simulated platforms.
package blockbench_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"blockbench"
	"blockbench/experiments"
	"blockbench/internal/exec"
	"blockbench/internal/exec/parallel"
	"blockbench/internal/kvstore"
	"blockbench/internal/sharding"
	"blockbench/internal/state"
	"blockbench/internal/types"
)

// benchScale keeps every figure benchmark to a few seconds.
var benchScale = experiments.Scale{Duration: 1500 * time.Millisecond, Shrink: 20}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	fn, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res, err := fn(benchScale)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig5PeakPerformance(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFig6QueueLength(b *testing.B)      { benchFigure(b, "fig6") }
func BenchmarkFig7Scalability(b *testing.B)      { benchFigure(b, "fig7") }
func BenchmarkFig8ScaleServers(b *testing.B)     { benchFigure(b, "fig8") }
func BenchmarkFig9CrashFault(b *testing.B)       { benchFigure(b, "fig9") }
func BenchmarkFig10PartitionAttack(b *testing.B) { benchFigure(b, "fig10") }
func BenchmarkFig11CPUHeavy(b *testing.B)        { benchFigure(b, "fig11") }
func BenchmarkFig12IOHeavy(b *testing.B)         { benchFigure(b, "fig12") }
func BenchmarkFig13Analytics(b *testing.B)       { benchFigure(b, "fig13") }
func BenchmarkFig13cDoNothing(b *testing.B)      { benchFigure(b, "fig13c") }
func BenchmarkFig14HStore(b *testing.B)          { benchFigure(b, "fig14") }
func BenchmarkFig15BlockSizes(b *testing.B)      { benchFigure(b, "fig15") }
func BenchmarkFig16Utilization(b *testing.B)     { benchFigure(b, "fig16") }
func BenchmarkFig17LatencyCDF(b *testing.B)      { benchFigure(b, "fig17") }
func BenchmarkFig18Queue20(b *testing.B)         { benchFigure(b, "fig18") }
func BenchmarkFig19SmallbankScale(b *testing.B)  { benchFigure(b, "fig19") }

// BenchmarkDriverSubmitPipeline exercises the driver's open-loop
// submission core in isolation — generator -> bounded channel -> sender
// workers at unlimited offered rate against the cheapest consensus path
// — and reports accepted submissions per second, tracking the hot path
// the channel pipeline replaced (mutex queue + sleep busy-wait).
func BenchmarkDriverSubmitPipeline(b *testing.B) {
	var submitted float64
	for i := 0; i < b.N; i++ {
		w := blockbench.MustWorkload("donothing", nil)
		c, err := blockbench.NewCluster(blockbench.ClusterConfig{
			Kind: blockbench.Hyperledger, Nodes: 4, Contracts: w.Contracts(),
		}, 4)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		r, err := blockbench.Run(c, w, blockbench.RunConfig{
			Clients: 4, Threads: 4, Rate: 0, Duration: 2 * time.Second,
		})
		c.Stop()
		if err != nil {
			b.Fatal(err)
		}
		submitted += float64(r.Submitted) / r.Duration.Seconds()
	}
	b.ReportMetric(submitted/float64(b.N), "submits/s")
}

// BenchmarkDriverSnapshotOverhead measures the cost of the run handle's
// live metric stream: the same pipeline as the submit benchmark but with
// an aggressive 10ms bucket, so ~150 frames (each assembling queue
// depths, latency quantiles-so-far and the platform counter map) are
// emitted over the run. Throughput staying close to the submit
// benchmark's is the regression signal; frames/s is reported alongside.
func BenchmarkDriverSnapshotOverhead(b *testing.B) {
	var submitted, frames float64
	for i := 0; i < b.N; i++ {
		w := blockbench.MustWorkload("donothing", nil)
		c, err := blockbench.NewCluster(blockbench.ClusterConfig{
			Kind: blockbench.Hyperledger, Nodes: 4, Contracts: w.Contracts(),
		}, 4)
		if err != nil {
			b.Fatal(err)
		}
		c.Start()
		run, err := blockbench.Start(context.Background(), c, w, blockbench.RunConfig{
			Clients: 4, Threads: 4, Rate: 0, Duration: 1500 * time.Millisecond,
			Bucket: 10 * time.Millisecond,
		})
		if err != nil {
			c.Stop()
			b.Fatal(err)
		}
		n := 0
		for range run.Snapshots() {
			n++
		}
		r, err := run.Wait()
		c.Stop()
		if err != nil {
			b.Fatal(err)
		}
		submitted += float64(r.Submitted) / r.Duration.Seconds()
		frames += float64(n) / r.Duration.Seconds()
	}
	b.ReportMetric(submitted/float64(b.N), "submits/s")
	b.ReportMetric(frames/float64(b.N), "frames/s")
}

// benchConfig is the root tests' fast config at the tracked Raft
// benchmarks' own timings — a coarser heartbeat and a modelled 50µs RPC
// — so their numbers stay comparable with the BENCH_ci.json baseline.
func benchConfig(kind blockbench.Platform, nodes int, w blockbench.Workload) blockbench.ClusterConfig {
	cfg := blockbench.TestingConfig(kind, nodes)
	cfg.Contracts = w.Contracts()
	cfg.RPCLatency = 50 * time.Microsecond
	cfg.Options["heartbeat"], cfg.Options["election"] = "10ms", "100ms"
	return cfg
}

// BenchmarkShardScaling is the sharded platform's scaling benchmark:
// committed tx/s over 8 nodes as the shard count sweeps 1/2/4/8, on a
// fully shardable workload (YCSB: single-key operations, pure fast
// path) versus a cross-shard one (Smallbank: two-account transfers run
// 2PC). Per-shard ordering capacity is pinned down (small batches) so
// the sweep exposes the parallelism of independent shard groups rather
// than driver limits; each run also reports the workload's cross-shard
// touch rate predicted by its operations' keys (OpKeys), and the
// observed rate from the run's counters.
func BenchmarkShardScaling(b *testing.B) {
	for _, wname := range []string{"ycsb", "smallbank"} {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/S=%d", wname, shards), func(b *testing.B) {
				var tput, xratio float64
				for i := 0; i < b.N; i++ {
					w := blockbench.MustWorkload(wname, blockbench.WorkloadOptions{"records": "500"})
					cfg := benchConfig(blockbench.Sharded, 8, w)
					cfg.Options["shards"] = strconv.Itoa(shards)
					cfg.Options["batch"] = "8"
					c, err := blockbench.NewCluster(cfg, 8)
					if err != nil {
						b.Fatal(err)
					}
					// Preload by direct append (cluster not started), then
					// measure through consensus only.
					if err := w.Init(c, rand.New(rand.NewSource(3))); err != nil {
						c.Stop()
						b.Fatal(err)
					}
					c.Start()
					// Offered load sits above the S=8 commit capacity so
					// every sweep point is consensus-bound, not
					// driver-bound; unlimited (Rate 0) floods would starve
					// the consensus timers instead of measuring them.
					r, err := blockbench.Run(c, w, blockbench.RunConfig{
						Clients: 8, Threads: 2, Rate: 500,
						Duration: 2 * time.Second, SkipInit: true,
					})
					c.Stop()
					if err != nil {
						b.Fatal(err)
					}
					tput += r.Throughput
					xratio += r.CrossShardRatio()
				}
				b.ReportMetric(tput/float64(b.N), "tx/s")
				b.ReportMetric(100*xratio/float64(b.N), "xshard%")
				b.ReportMetric(100*keyOfCrossRate(wname, shards), "keyof-xshard%")
			})
		}
	}
}

// delayEngine wraps an execution engine with a fixed per-transaction
// stall, standing in for the storage reads and signature checks that
// dominate real transaction latency. The stall parks the goroutine, so
// worker overlap is visible even on a single-core runner — which is
// exactly the resource the parallel scheduler exists to exploit.
type delayEngine struct {
	exec.Engine
	d time.Duration
}

func (e delayEngine) ExecuteInto(db *state.DB, tx *types.Transaction, blockNum uint64, r *types.Receipt) {
	time.Sleep(e.d)
	e.Engine.ExecuteInto(db, tx, blockNum, r)
}

// BenchmarkExecScaling charts the intra-block parallel executor:
// committed tx/s for one 128-transaction block as the worker count
// sweeps 1/2/4/8, on a conflict-light workload (YCSB with a uniform
// request distribution over 500 records: nearly disjoint key sets)
// versus a contended one (Smallbank's transfer mix squeezed onto 100
// hot accounts, where validation failures force re-execution). W=1 is
// the serial baseline — the executor short-circuits to a plain
// sequential loop, so the sweep isolates the scheduler's win and
// overhead. conflicts/blk reports the re-execution pressure behind
// each point.
func BenchmarkExecScaling(b *testing.B) {
	const (
		blockTxs = 128
		txDelay  = 50 * time.Microsecond
	)
	cases := []struct {
		wname   string
		records int
		wopts   blockbench.WorkloadOptions
	}{
		{"ycsb", 500, blockbench.WorkloadOptions{"records": "500", "distribution": "uniform"}},
		{"smallbank", 100, blockbench.WorkloadOptions{"records": "100"}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/W=%d", tc.wname, workers), func(b *testing.B) {
				eng, err := exec.NewEVMEngine(exec.MemModel{}, "ycsb", "smallbank")
				if err != nil {
					b.Fatal(err)
				}
				// Preload the record set directly through the engine, then
				// commit: every measured iteration re-executes the same
				// block on top of this root.
				store := kvstore.NewMem()
				backend, err := state.NewTrieBackend(store, types.ZeroHash, 0)
				if err != nil {
					b.Fatal(err)
				}
				db := state.NewDB(backend)
				rng := rand.New(rand.NewSource(7))
				for _, op := range execScalingPreload(tc.wname, tc.records, rng) {
					if r := eng.Execute(db, opTx(op, 0), 0); !r.OK {
						b.Fatalf("preload failed: %+v", r)
					}
				}
				root, err := db.Commit()
				if err != nil {
					b.Fatal(err)
				}

				w := blockbench.MustWorkload(tc.wname, tc.wopts)
				txs := make([]*types.Transaction, blockTxs)
				for i := range txs {
					txs[i] = opTx(w.Next(i%8, rng), uint64(i))
				}

				ex := parallel.New(workers)
				deng := delayEngine{eng, txDelay}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bb, err := state.NewTrieBackend(store, root, 0)
					if err != nil {
						b.Fatal(err)
					}
					ex.ExecuteBlock(deng, state.NewDB(bb), txs, 1)
				}
				b.StopTimer()
				c := ex.Counters()
				b.ReportMetric(float64(blockTxs*b.N)/b.Elapsed().Seconds(), "tx/s")
				b.ReportMetric(float64(c["exec.parallel.conflicts"])/float64(b.N), "conflicts/blk")
			})
		}
	}
}

// opTx converts a workload operation into a bare transaction, the way
// the driver's client does before signing.
func opTx(op blockbench.Op, nonce uint64) *types.Transaction {
	gas := op.GasLimit
	if gas == 0 {
		gas = blockbench.DefaultGasLimit
	}
	return &types.Transaction{Nonce: nonce, Contract: op.Contract, Method: op.Method,
		Args: op.Args, Value: op.Value, GasLimit: gas}
}

// execScalingPreload mirrors each workload's Init record set as raw
// operations (the workload Init path needs a booted cluster, which this
// engine-level benchmark deliberately avoids).
func execScalingPreload(wname string, records int, rng *rand.Rand) []blockbench.Op {
	ops := make([]blockbench.Op, 0, 2*records)
	for i := 0; i < records; i++ {
		switch wname {
		case "ycsb":
			ops = append(ops, blockbench.Op{Contract: "ycsb", Method: "write",
				Args: [][]byte{[]byte(fmt.Sprintf("user%010d", i)), types.U64Bytes(rng.Uint64())}})
		case "smallbank":
			acct := types.U64Bytes(uint64(i))
			bal := types.U64Bytes(10_000)
			ops = append(ops,
				blockbench.Op{Contract: "smallbank", Method: "depositChecking", Args: [][]byte{acct, bal}},
				blockbench.Op{Contract: "smallbank", Method: "transactSavings", Args: [][]byte{acct, bal}})
		}
	}
	return ops
}

// keyOfCrossRate predicts a workload's cross-shard touch rate from its
// operations' keys (OpKeys): the fraction of 2000 drawn operations whose keys span
// more than one shard of a hash partitioner.
func keyOfCrossRate(wname string, shards int) float64 {
	w := blockbench.MustWorkload(wname, blockbench.WorkloadOptions{"records": "500"})
	p := sharding.NewHashPartitioner(shards)
	rng := rand.New(rand.NewSource(11))
	cross := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		seen := map[int]bool{}
		for _, k := range blockbench.OpKeys(w.Next(i%8, rng)) {
			seen[p.Shard(k)] = true
		}
		if len(seen) > 1 {
			cross++
		}
	}
	return float64(cross) / draws
}

// BenchmarkThroughputPerPlatform reports the headline Fig 5 metric
// (committed tx/s under YCSB at 4x4) per platform as a custom metric.
func BenchmarkThroughputPerPlatform(b *testing.B) {
	for _, kind := range blockbench.Platforms() {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				w := blockbench.MustWorkload("ycsb", blockbench.WorkloadOptions{"records": "100"})
				c, err := blockbench.NewCluster(blockbench.ClusterConfig{
					Kind: kind, Nodes: 4, Contracts: w.Contracts(),
				}, 4)
				if err != nil {
					b.Fatal(err)
				}
				c.Start()
				r, err := blockbench.Run(c, w, blockbench.RunConfig{
					Clients: 4, Threads: 2, Rate: 256, Duration: 2 * time.Second,
				})
				c.Stop()
				if err != nil {
					b.Fatal(err)
				}
				tput += r.Throughput
			}
			b.ReportMetric(tput/float64(b.N), "tx/s")
		})
	}
}
