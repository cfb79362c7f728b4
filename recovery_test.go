package blockbench

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"blockbench/internal/types"
)

// durableCluster builds a fast LSM-backed cluster: nodes restart from
// their persisted store (WAL replay, block journal, consensus hard
// state) rather than from an in-memory snapshot of nothing.
func durableCluster(t *testing.T, kind Platform, nodes, clients int, mut func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := testConfig(kind, nodes)
	cfg.Contracts = []string{"ycsb", "smallbank", "donothing"}
	cfg.DataDir = t.TempDir()
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCluster(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.Start()
	return c
}

// waitConverged polls until every node reports the same chain height
// (and at least min), i.e. a recovered node has fully caught up.
func waitConverged(t *testing.T, c *Cluster, min uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		lo, hi := ^uint64(0), uint64(0)
		for i := 0; i < c.Size(); i++ {
			h := c.NodeHeight(i)
			if h < lo {
				lo = h
			}
			if h > hi {
				hi = h
			}
		}
		if lo == hi && lo >= min {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("heights did not converge within %v: lo=%d hi=%d", timeout, lo, hi)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// assertChainsByteIdentical re-encodes every block up to the shortest
// chain on every node and compares the wire bytes — stronger than hash
// agreement, and exactly the acceptance bar for crash recovery.
func assertChainsByteIdentical(t *testing.T, c *Cluster, nodes ...int) {
	t.Helper()
	inner := c.Inner()
	min := ^uint64(0)
	for _, i := range nodes {
		if h := inner.NodeHeight(i); h < min {
			min = h
		}
	}
	if min == 0 {
		t.Fatal("nothing committed to compare")
	}
	for h := uint64(1); h <= min; h++ {
		ref, ok := inner.Chain(nodes[0]).GetBlock(h)
		if !ok {
			t.Fatalf("node %d missing block %d", nodes[0], h)
		}
		want := types.EncodeBlock(ref)
		for _, i := range nodes[1:] {
			b, ok := inner.Chain(i).GetBlock(h)
			if !ok {
				t.Fatalf("node %d missing block %d", i, h)
			}
			if !bytes.Equal(want, types.EncodeBlock(b)) {
				t.Fatalf("nodes %d and %d diverge at block %d", nodes[0], i, h)
			}
		}
	}
}

// TestQuorumCrashRecoveryByteIdentical kills a Raft node mid-commit —
// its LSM store crash-closes with a genuinely torn WAL tail — then
// restarts it from disk alone. The recovered node must replay its
// journal, rejoin the group, and converge to byte-identical chain
// contents on every node. Its analytics index, rebuilt by that replay
// and the sync after it, must answer like a node that never went down.
func TestQuorumCrashRecoveryByteIdentical(t *testing.T) {
	c := durableCluster(t, Quorum, 4, 2, nil)
	r, err := Run(c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients: 2, Threads: 2, Rate: 100, Duration: 3 * time.Second,
		Events: []Event{
			CrashNode(700*time.Millisecond, 1),
			RecoverNode(1700*time.Millisecond, 1),
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatal("nothing committed around the crash")
	}
	if len(r.Events) != 2 {
		t.Fatalf("fired %d of 2 fault events: %v", len(r.Events), r.Events)
	}
	if got := c.inner.Restarts(1); got != 1 {
		t.Fatalf("node 1 restarts = %d, want 1", got)
	}
	if len(r.Invariants) != 0 {
		t.Fatalf("safety violations: %v", r.Invariants)
	}
	waitConverged(t, c, 1, 30*time.Second)
	assertChainsByteIdentical(t, c, 0, 1, 2, 3)

	// Both queries read every indexed row they cover: the sum counts all
	// rows in [1, h], the top-k every row of a client's account.
	h := min(c.NodeHeight(0), c.NodeHeight(1))
	for _, q := range []AnalyticsQuery{
		{Op: AnalyticsSum, From: 1, To: h + 1},
		{Op: AnalyticsTopK, Account: c.Keys()[0].Address(), From: 1, To: h + 1, K: 4},
	} {
		want, err := c.ClientOn(0, 0).Analytics(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.ClientOn(0, 1).Analytics(q)
		if err != nil {
			t.Fatal(err)
		}
		if want.Rows == 0 || want.Height != h {
			t.Fatalf("%s on node 0 read %d rows up to %d, want rows up to %d", q.Op, want.Rows, want.Height, h)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s to %d: recovered node 1 answered %+v, node 0 %+v", q.Op, h, got, want)
		}
	}
}

// TestQuorumRejoinViaInstallSnapshot kills a node, commits far past the
// leader's Raft log retention while it is down, and restarts it: the
// log entries it missed are gone, so the only way home is the
// snapshot-install path plus canonical chain sync — and the chains must
// still converge byte-identically.
func TestQuorumRejoinViaInstallSnapshot(t *testing.T) {
	c := durableCluster(t, Quorum, 4, 2, func(cfg *ClusterConfig) {
		cfg.Options["retain"] = "8" // compact aggressively so the gap outgrows the log
	})
	// Commit a little history first so the killed node persists a chain
	// prefix it must extend (not bootstrap) after restart.
	if _, err := Run(c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients: 2, Threads: 2, Rate: 100, Duration: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	c.Inner().Crash(3)
	before := c.NodeHeight(0)
	if _, err := Run(c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients: 2, Threads: 2, Rate: 150, Duration: 2 * time.Second, SkipInit: true,
	}); err != nil {
		t.Fatal(err)
	}
	if grown := c.NodeHeight(0) - before; grown < 16 {
		t.Fatalf("only %d blocks committed while node 3 was down; need > retention(8)*2", grown)
	}
	if err := c.Inner().Recover(3); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, c, c.NodeHeight(0), 30*time.Second)
	if got := c.Inner().Counters()["raft.snapshot_installs"]; got == 0 {
		t.Fatal("node rejoined without an InstallSnapshot despite compacted log")
	}
	assertChainsByteIdentical(t, c, 0, 1, 2, 3)
}

// TestShardedGatewayCrashMid2PC kills one replica (a 2PC gateway) in
// the middle of a cross-shard Smallbank run and restarts it. Soft locks
// it held must expire or release so the surviving gateways keep
// committing, cross-shard accounting must stay exact, and every replica
// of each shard must agree on every balance afterwards — all asserted
// by the driver's invariant checker plus the workload's own hook.
func TestShardedGatewayCrashMid2PC(t *testing.T) {
	c := durableCluster(t, Sharded, 6, 3, func(cfg *ClusterConfig) {
		cfg.Options["shards"] = "2" // 3 replicas per group: one kill keeps the majority
	})
	w := &SmallbankWorkload{Accounts: 20, InitialBalance: 1000}
	r, err := Run(c, w, RunConfig{
		Clients: 3, Threads: 2, Rate: 60, Duration: 3 * time.Second,
		Events: []Event{
			CrashNode(700*time.Millisecond, 1),
			RecoverNode(1900*time.Millisecond, 1),
		},
		CheckInvariants: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatal("nothing committed around the gateway crash")
	}
	if r.Counters["xshard.txs"] == 0 {
		t.Fatal("no cross-shard transactions coordinated; the test exercised nothing")
	}
	if len(r.Invariants) != 0 {
		t.Fatalf("safety violations: %v", r.Invariants)
	}
}

// TestChaosRunInvariantsHold is the randomized soak: a seeded chaos
// timeline of process kills, asymmetric partitions and lossy links over
// a Raft quorum, with the always-on safety checks armed. Whatever the
// interleaving, safety must hold — and the seed in the report would
// reproduce it if it ever does not.
func TestChaosRunInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak too heavy for -short")
	}
	c := durableCluster(t, Quorum, 5, 2, nil)
	r, err := Run(c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients: 2, Threads: 2, Rate: 80, Duration: 6 * time.Second,
		Chaos: &ChaosOptions{Seed: 7, Kill: 0.05, Net: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.ChaosSeed != 7 {
		t.Fatalf("chaos seed not echoed: %d", r.ChaosSeed)
	}
	if len(r.Invariants) != 0 {
		t.Fatalf("safety violations under chaos seed %d: %v", r.ChaosSeed, r.Invariants)
	}
	if r.Committed == 0 {
		t.Fatal("majority quorum committed nothing for the whole chaos run")
	}
	waitConverged(t, c, 1, 30*time.Second)
	assertChainsByteIdentical(t, c, 0, 1, 2, 3, 4)
}

// TestDriverFailoverOnCrashedServer pins one client to a server, kills
// the server mid-run, and checks the driver rotated the client to a
// live node (driver.failovers) instead of wedging its submit threads.
func TestDriverFailoverOnCrashedServer(t *testing.T) {
	c := durableCluster(t, Quorum, 4, 2, nil)
	r, err := Run(c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients: 2, Threads: 2, Rate: 100, Duration: 2 * time.Second,
		Events: []Event{CrashNode(500*time.Millisecond, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Counters["driver.failovers"] == 0 {
		t.Fatal("client stayed pinned to a crashed server")
	}
	if r.Committed == 0 {
		t.Fatal("nothing committed after failover")
	}
}
