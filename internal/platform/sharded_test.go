package platform

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"blockbench/internal/crypto"
	"blockbench/internal/sharding"
	"blockbench/internal/types"
)

// shardedConfig is fastConfig with the shard count pinned.
func shardedConfig(nodes, shards int) Config {
	cfg := fastConfig(Sharded, nodes, clientKeys(4))
	cfg.Options["shards"] = strconv.Itoa(shards)
	return cfg
}

// waitReceipts polls each transaction's gateway node until every
// submission has a receipt (local chain or routed commit) or times out.
func waitReceipts(t *testing.T, c *Cluster, ids []types.Hash, gateways []int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for i, id := range ids {
		for {
			if _, ok, _ := c.Node(gateways[i]).Receipt(id); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tx %d/%d never committed (gateway %d, counters %v)",
					i+1, len(ids), gateways[i], c.Counters())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestShardedClusterCommits boots the fifth platform end to end: YCSB
// writes routed through every gateway commit on their owning shards and
// are all visible at the gateway that accepted them — and, being
// single-key, every one takes the fast path with zero 2PC.
func TestShardedClusterCommits(t *testing.T) {
	keys := clientKeys(4)
	cfg := shardedConfig(4, 2)
	cfg.ClientKeys = keys
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(); c.Close() })
	c.Start()

	const txs = 40
	ids := make([]types.Hash, txs)
	gateways := make([]int, txs)
	for i := 0; i < txs; i++ {
		ids[i] = submitYCSB(t, c, keys[i%len(keys)], true, i)
		gateways[i] = i % c.Size()
	}
	waitReceipts(t, c, ids, gateways, 30*time.Second)

	counters := c.Counters()
	if counters["xshard.fastpath"] != txs {
		t.Fatalf("fastpath = %d, want %d (single-key txs must bypass 2PC)",
			counters["xshard.fastpath"], txs)
	}
	if counters["xshard.txs"] != 0 {
		t.Fatalf("xshard.txs = %d for a single-key workload", counters["xshard.txs"])
	}
	// Per-shard counter prefixes are present for both groups.
	for s := 0; s < 2; s++ {
		if _, ok := counters[fmt.Sprintf("shard%d.raft.batches", s)]; !ok {
			t.Fatalf("missing per-shard counters for shard %d: %v", s, counters)
		}
	}
}

// crossShardPair returns two smallbank account ids that the sharded
// engine's partitioner places on different shards.
func crossShardPair(p sharding.HashPartitioner, from int) (a, b []byte) {
	a = types.U64Bytes(uint64(from))
	sa := p.Shard(a)
	for i := from + 1; ; i++ {
		b = types.U64Bytes(uint64(i))
		if p.Shard(b) != sa {
			return a, b
		}
	}
}

// TestShardedCrossShard2PCAccounting is the conservation check of the
// cross-shard protocol: with contending transfers racing over shared
// accounts, every multi-shard transaction resolves as exactly one of
// xshard.commits or xshard.aborts (retries are rounds, not outcomes).
// Run under -race this also exercises the coordinator, participant and
// notice paths concurrently.
func TestShardedCrossShard2PCAccounting(t *testing.T) {
	keys := clientKeys(4)
	const shards = 2
	cfg := shardedConfig(4, shards)
	cfg.ClientKeys = keys
	cfg.Contracts = []string{"smallbank", "ycsb", "donothing"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(); c.Close() })
	c.Start()

	if _, ok := c.Node(0).Consensus().(*sharding.Engine); !ok {
		t.Fatalf("sharded node runs %T", c.Node(0).Consensus())
	}
	part := sharding.NewHashPartitioner(shards) // what each node's core builds

	// A small pool of hot cross-shard pairs so concurrent prepares
	// contend for the same locks (abort-retry coverage).
	const txs = 40
	done := make(chan types.Hash, txs)
	for i := 0; i < txs; i++ {
		go func(i int) {
			a, b := crossShardPair(part, i%5)
			tx := &types.Transaction{
				Nonce:    uint64(1000 + i),
				From:     keys[i%len(keys)].Address(),
				Contract: "smallbank",
				Method:   "sendPayment",
				Args:     [][]byte{a, b, types.U64Bytes(1)},
				GasLimit: 100_000,
			}
			if err := crypto.SignTx(tx, keys[i%len(keys)]); err != nil {
				t.Error(err)
				done <- types.ZeroHash
				return
			}
			id, err := c.Node(i % c.Size()).SendTransaction(tx)
			if err != nil {
				t.Errorf("send: %v", err)
			}
			done <- id
		}(i)
	}
	for i := 0; i < txs; i++ {
		<-done
	}

	// Every coordination must resolve: commits + aborts == multi-shard
	// transactions submitted, exactly.
	deadline := time.Now().Add(30 * time.Second)
	for {
		counters := c.Counters()
		x, commits, aborts := counters["xshard.txs"], counters["xshard.commits"], counters["xshard.aborts"]
		if commits+aborts == x && x == txs {
			if commits == 0 {
				t.Fatalf("no cross-shard tx committed (aborts=%d)", aborts)
			}
			t.Logf("cross-shard: %d txs -> %d commits, %d aborts, %d retries",
				x, commits, aborts, counters["xshard.retries"])
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("2PC accounting never converged: txs=%d commits=%d aborts=%d (want commits+aborts == %d)",
				x, commits, aborts, txs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardedShardGroupsIsolated: each shard group elects its own
// leader and the groups' Raft instances do not interfere (a foreign
// group's election traffic must not bump this group's terms).
func TestShardedShardGroupsIsolated(t *testing.T) {
	cfg := shardedConfig(4, 2)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Stop(); c.Close() })
	c.Start()

	deadline := time.Now().Add(10 * time.Second)
	for {
		leaders := make(map[int]int)
		for i := 0; i < c.Size(); i++ {
			eng := c.Node(i).Consensus().(*sharding.Engine)
			if eng.IsLeader() {
				leaders[eng.Shard()]++
			}
		}
		if leaders[0] == 1 && leaders[1] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("per-shard leaders never stabilized: %v", leaders)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
