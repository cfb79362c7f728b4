package blockbench

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// testConfig is the one fast-timing cluster config of the root tests
// and benchmarks: timings well below the defaults so end-to-end tests
// finish in a couple of seconds. The knobs belong to the presets, so
// the Options are per kind; the map is fresh, so callers add or
// override keys freely.
func testConfig(kind Platform, nodes int) ClusterConfig {
	var opts map[string]string
	switch kind {
	case Ethereum:
		opts = map[string]string{"block": "40ms"}
	case Parity:
		opts = map[string]string{"step": "20ms", "ingest": "2ms"}
	case Hyperledger:
		opts = map[string]string{"batchtimeout": "5ms", "viewtimeout": "200ms"}
	default: // the Raft-backed presets
		opts = map[string]string{"batchtimeout": "5ms", "election": "80ms", "heartbeat": "5ms"}
	}
	return ClusterConfig{Kind: kind, Nodes: nodes, RPCLatency: time.Microsecond, Options: opts}
}

// TestingConfig hands testConfig to the external blockbench_test
// package (the files that import experiments cannot be internal).
var TestingConfig = testConfig

// fastClusterStopped builds a testConfig cluster, leaving it unstarted
// (workloads that preload history must do so before consensus begins
// producing blocks).
func fastClusterStopped(t *testing.T, kind Platform, nodes, clients int, contracts ...string) *Cluster {
	t.Helper()
	if len(contracts) == 0 {
		contracts = []string{"ycsb", "smallbank", "donothing"}
	}
	cfg := testConfig(kind, nodes)
	cfg.Contracts = contracts
	c, err := NewCluster(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

func fastCluster(t *testing.T, kind Platform, nodes, clients int, contracts ...string) *Cluster {
	t.Helper()
	c := fastClusterStopped(t, kind, nodes, clients, contracts...)
	c.Start()
	return c
}

// waitHeightAtLeast blocks until node 0's chain reaches height h.
func waitHeightAtLeast(t *testing.T, c *Cluster, h uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for c.NodeHeight(0) < h {
		if time.Now().After(deadline) {
			t.Fatalf("height %d not reached within %v (at %d)", h, timeout, c.NodeHeight(0))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDriverYCSBAllPlatforms(t *testing.T) {
	for _, kind := range Platforms() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := fastCluster(t, kind, 4, 4)
			duration := 3 * time.Second
			if kind == Ethereum {
				// PoW block cadence depends on host hash throughput — the
				// race detector alone slows it an order of magnitude, and a
				// fixed window can elapse before any transaction reaches
				// confirmation depth. Measure the cluster's real cadence
				// (difficulty has retargeted after a couple of blocks) and
				// size the window so a depth-confirmed commit always fits.
				waitHeightAtLeast(t, c, 1, 2*time.Minute)
				base, start := c.NodeHeight(0), time.Now()
				waitHeightAtLeast(t, c, base+2, 2*time.Minute)
				perBlock := time.Since(start) / 2
				if d := time.Duration(c.Inner().ConfirmationDepth()+8) * perBlock; d > duration {
					duration = d
				}
			}
			r, err := Run(c, &YCSBWorkload{Records: 100}, RunConfig{
				Clients:  4,
				Threads:  2,
				Rate:     40,
				Duration: duration,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Committed == 0 {
				t.Fatalf("no transactions committed: %+v", r)
			}
			if r.Throughput <= 0 {
				t.Fatal("zero throughput")
			}
			if r.LatencyMean <= 0 {
				t.Fatal("no latency samples")
			}
			if r.Blocks == 0 {
				t.Fatal("no blocks")
			}
			t.Logf("%s", r)
		})
	}
}

func TestDriverBlockingMode(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 1)
	r, err := Run(c, DoNothingWorkload{}, RunConfig{
		Clients:  1,
		Threads:  1,
		Blocking: true,
		Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatal("blocking mode committed nothing")
	}
	if r.LatencyP99 <= 0 {
		t.Fatal("no latency distribution")
	}
}

func TestDriverSmallbankConservation(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 2)
	w := &SmallbankWorkload{Accounts: 20, InitialBalance: 1000}
	if _, err := Run(c, w, RunConfig{
		Clients: 2, Threads: 2, Rate: 50, Duration: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	// Total funds = deposits only (sendPayment/amalgamate conserve;
	// deposits add; writeCheck subtracts). Cross-check all replicas
	// agree on every balance.
	time.Sleep(300 * time.Millisecond)
	cl0, cl1 := c.ClientOn(0, 0), c.ClientOn(0, 3)
	for i := 0; i < 20; i++ {
		b0, err := cl0.Query("smallbank", "getBalance", sbAcct(i))
		if err != nil {
			t.Fatal(err)
		}
		b1, err := cl1.Query("smallbank", "getBalance", sbAcct(i))
		if err != nil {
			t.Fatal(err)
		}
		if string(b0) != string(b1) {
			t.Fatalf("replica divergence on account %d", i)
		}
	}
}

func TestContractWorkloadsCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("contract workload sweep too heavy for -short")
	}
	// The three "real Ethereum contract" workloads run end-to-end.
	workloads := []Workload{
		&EtherIdWorkload{},
		&DoublerWorkload{},
		&WavesWorkload{},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			c := fastCluster(t, Ethereum, 3, 2, w.Contracts()...)
			// The run ends at the first frame that shows a commit; its
			// Duration only bounds a hang.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			run, err := Start(ctx, c, w, RunConfig{
				Clients: 2, Threads: 1, Rate: 30, Duration: 20 * time.Second,
				Bucket: 100 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			for snap := range run.Snapshots() {
				if snap.Committed > 0 {
					cancel()
					break
				}
			}
			r, err := run.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if r.Committed == 0 {
				t.Fatalf("%s committed nothing", w.Name())
			}
		})
	}
}

func TestAnalyticsQ1Q2(t *testing.T) {
	if testing.Short() {
		t.Skip("analytics preload too heavy for -short")
	}
	for _, kind := range []Platform{Ethereum, Hyperledger} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := fastClusterStopped(t, kind, 2, 8, "versionkv", "donothing")
			a := &Analytics{Blocks: 50, TxPerBlock: 3, Accounts: 8}
			if err := a.Init(c, rand.New(rand.NewSource(1))); err != nil {
				t.Fatal(err)
			}
			c.Start()
			client := c.Client(0)
			total, d1, err := a.Q1(client, 1, 40)
			if err != nil {
				t.Fatal(err)
			}
			if total == 0 {
				t.Fatal("Q1 found no transaction value")
			}
			_, d2, err := a.Q2(client, a.Account(0), 1, 40)
			if err != nil {
				t.Fatal(err)
			}
			if d1 <= 0 || d2 <= 0 {
				t.Fatal("zero latencies")
			}
			t.Logf("%s: q1=%v q2=%v", kind, d1, d2)
		})
	}
}

func TestHyperledgerNeverForks(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 2)
	if _, err := Run(c, DoNothingWorkload{}, RunConfig{
		Clients: 2, Threads: 2, Rate: 100, Duration: 2 * time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	total, main := c.ForkStats()
	if total != main {
		t.Fatalf("PBFT forked: total=%d main=%d", total, main)
	}
}

func TestCrashFaultTolerance(t *testing.T) {
	// Ethereum keeps committing after 1 of 4 miners dies.
	c := fastCluster(t, Ethereum, 4, 2)
	w := &YCSBWorkload{Records: 50}
	if _, err := Run(c, w, RunConfig{Clients: 2, Rate: 20, Duration: time.Second}); err != nil {
		t.Fatal(err)
	}
	c.Inner().Crash(3)
	// Deterministic: submit one transaction and poll its receipt instead
	// of betting that a fixed measurement window sees a commit (mining
	// speed varies with the host, especially under -race).
	cl := c.Client(0)
	id, err := cl.Send(Op{Contract: "ycsb", Method: "write",
		Args: [][]byte{[]byte("crash-k"), []byte("crash-v")}})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		ok, err := cl.Committed(id)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no commits after crash of 1/4 miners")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{Platform: "ethereum", Workload: "ycsb", Nodes: 8, Clients: 8,
		Throughput: 284, LatencyMean: 0.5, Blocks: 100, Duration: time.Minute,
		ForkTotal: 105, ForkMain: 100, SubmitErrors: 2,
		Counters: map[string]uint64{"raft.elections": 4}}
	s := r.String()
	if s == "" {
		t.Fatal("empty report string")
	}
	// A faulty run must not print like a healthy one (crashed-leader
	// signals: submit errors and elections).
	for _, want := range []string{"submit-errors=2", "elections=4", "forks=5 stale"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}
