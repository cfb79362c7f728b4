package blockbench

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"blockbench/internal/analytics"
	"blockbench/internal/kvstore"
)

// fastAnalyticsCluster is fastClusterStopped plus extra -popt style
// Options.
func fastAnalyticsCluster(t *testing.T, kind Platform, nodes, clients int, popts map[string]string) *Cluster {
	t.Helper()
	cfg := testConfig(kind, nodes)
	cfg.Contracts = []string{"versionkv", "donothing"}
	for k, v := range popts {
		cfg.Options[k] = v
	}
	c, err := NewCluster(cfg, clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// TestAnalyticsIndexedMatchesRPC pins the tentpole equivalence: on a
// seeded 2k-block chain, the indexed read path returns exactly what
// the paper's per-block RPC walk returns — on every platform,
// including the LSM store (which also persists the index segments).
func TestAnalyticsIndexedMatchesRPC(t *testing.T) {
	if testing.Short() {
		t.Skip("2k-block preload too heavy for -short")
	}
	cases := []struct {
		name  string
		kind  Platform
		popts map[string]string
	}{
		{"ethereum", Ethereum, nil},
		{"parity", Parity, nil},
		{"hyperledger", Hyperledger, nil},
		{"quorum", Quorum, nil},
		{"sharded", Sharded, nil},
		{"quorum-lsm", Quorum, map[string]string{"store": "lsm"}},
	}
	const blocks = 2000
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := fastAnalyticsCluster(t, tc.kind, 2, 8, tc.popts)
			a := &Analytics{Blocks: blocks, TxPerBlock: 3, Accounts: 8}
			if err := a.Init(c, rand.New(rand.NewSource(7))); err != nil {
				t.Fatal(err)
			}
			c.Start()
			client := c.Client(0)

			// Stay 3 blocks under the preloaded head so the indexed
			// path's confirmation clamp (depth 2 on Ethereum) can never
			// shorten a range the RPC walk covers.
			h := c.Height()
			if h < blocks {
				t.Fatalf("preload height %d < %d", h, blocks)
			}
			top := h - 3
			ranges := [][2]uint64{
				{1, top},                               // full history
				{top - blocks/2, top - blocks/2 + 100}, // mid-chain window
				{top - 40, top},                        // hot tail
				{top - 18, top - 17},                   // single block
			}
			for _, r := range ranges {
				from, to := r[0], r[1]
				a.Mode = "rpc"
				wantQ1, _, err := a.Q1(client, from, to)
				if err != nil {
					t.Fatal(err)
				}
				a.Mode = "indexed"
				gotQ1, _, err := a.Q1(client, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if gotQ1 != wantQ1 {
					t.Fatalf("Q1 [%d,%d): indexed %d, rpc %d", from, to, gotQ1, wantQ1)
				}
				for i := 0; i < 3; i++ {
					acct := a.Account(i)
					a.Mode = "rpc"
					wantQ2, _, err := a.Q2(client, acct, from, to)
					if err != nil {
						t.Fatal(err)
					}
					a.Mode = "indexed"
					gotQ2, _, err := a.Q2(client, acct, from, to)
					if err != nil {
						t.Fatal(err)
					}
					if gotQ2 != wantQ2 {
						t.Fatalf("Q2 [%d,%d) acct %d: indexed %d, rpc %d", from, to, i, gotQ2, wantQ2)
					}
				}
			}

			// Range-restricted scans must have pruned whole segments.
			counters := c.Inner().Counters()
			if counters["analytics.zone_skips"] == 0 {
				t.Fatalf("no zone-map skips recorded: %v", counters)
			}
			if counters["analytics.queries"] == 0 || counters["analytics.rows"] == 0 {
				t.Fatalf("analytics counters did not move: %v", counters)
			}
		})
	}
}

// TestAnalyticsCatchUpRebuild pins late-start convergence: an indexer
// attached after the fact — fresh, or restored from the node's store —
// catches up to the chain and answers every query exactly like the
// commit-path indexer that saw each block live.
func TestAnalyticsCatchUpRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("preload too heavy for -short")
	}
	c := fastAnalyticsCluster(t, Quorum, 2, 8, nil)
	a := &Analytics{Blocks: 1200, TxPerBlock: 3, Accounts: 8}
	if err := a.Init(c, rand.New(rand.NewSource(11))); err != nil {
		t.Fatal(err)
	}
	// The cluster stays unstarted: the chain is frozen at the preload,
	// so live, rebuilt and restored indexes must agree exactly.
	chain := c.Inner().Chain(0)

	rebuilt := analytics.NewIndexer(kvstore.NewMem(), analytics.Options{})
	if err := rebuilt.CatchUp(chain); err != nil {
		t.Fatal(err)
	}

	restored := analytics.NewIndexer(c.Inner().Store(0), analytics.Options{})
	if err := restored.Load(); err != nil {
		t.Fatal(err)
	}
	if restored.Rows() == 0 {
		t.Fatal("restored indexer loaded no persisted segments")
	}
	if err := restored.CatchUp(chain); err != nil {
		t.Fatal(err)
	}

	client := c.Client(0)
	h := c.Height()
	queries := []AnalyticsQuery{
		{Op: AnalyticsSum, From: 1, To: h + 1},
		{Op: AnalyticsSum, From: h / 2, To: h/2 + 50},
		{Op: AnalyticsMaxDelta, Account: a.Account(0), From: 1, To: h + 1},
		{Op: AnalyticsTopK, Account: a.Account(1), From: 1, To: h + 1, K: 4},
	}
	for _, q := range queries {
		live, err := client.Analytics(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, ix := range map[string]*analytics.Indexer{"rebuilt": rebuilt, "restored": restored} {
			got, err := ix.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.Value != live.Value || len(got.Top) != len(live.Top) {
				t.Fatalf("%s %s: got %+v, live %+v", name, q.Op, got, live)
			}
			for i := range got.Top {
				if got.Top[i] != live.Top[i] {
					t.Fatalf("%s %s top[%d]: got %+v, live %+v", name, q.Op, i, got.Top[i], live.Top[i])
				}
			}
		}
	}
}

// TestHTAPScansSeeCommittedOnly runs the htap mix and, concurrently
// with the OLTP traffic, asserts the analytical invariants: query
// height never goes backward, and a fixed committed range keeps
// returning the same answer while new commits land (quorum never
// forks, so committed history is immutable).
func TestHTAPScansSeeCommittedOnly(t *testing.T) {
	c := fastCluster(t, Quorum, 3, 4, "versionkv", "donothing")
	w := &HTAP{QueryEvery: 8}

	stop := make(chan struct{})
	var monitorErr atomic.Value
	go func() {
		client := c.ClientOn(1, 1%c.Size())
		var lastH, pinnedH, pinnedSum uint64
		for {
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			res, err := client.Analytics(AnalyticsQuery{Op: AnalyticsSum, From: 1})
			if err != nil {
				continue // run may still be warming up
			}
			if res.Height < lastH {
				monitorErr.Store("query height went backward")
				return
			}
			lastH = res.Height
			if pinnedH == 0 && res.Height > 16 {
				pinnedH = res.Height
				pinned, err := client.Analytics(AnalyticsQuery{Op: AnalyticsSum, From: 1, To: pinnedH + 1})
				if err != nil {
					continue
				}
				pinnedSum = pinned.Value
				continue
			}
			if pinnedH > 0 {
				again, err := client.Analytics(AnalyticsQuery{Op: AnalyticsSum, From: 1, To: pinnedH + 1})
				if err == nil && again.Value != pinnedSum {
					monitorErr.Store("committed range changed under concurrent OLTP commits")
					return
				}
			}
		}
	}()

	r, err := Run(c, w, RunConfig{Clients: 4, Threads: 2, Rate: 300, Duration: 2500 * time.Millisecond})
	close(stop)
	if err != nil {
		t.Fatal(err)
	}
	if v := monitorErr.Load(); v != nil {
		t.Fatal(v)
	}
	if r.Committed == 0 {
		t.Fatal("no OLTP transactions committed")
	}
	if w.queries.Load() == 0 {
		t.Fatal("no analytical queries ran during the mix")
	}
	if r.Counters["analytics.queries"] == 0 {
		t.Fatalf("report analytics.queries = 0: %v", r.Counters)
	}

	// Final equivalence: the indexed sum over the confirmed history
	// equals a fresh RPC walk over the same fixed range.
	client := c.Client(0)
	h, err := client.Height()
	if err != nil {
		t.Fatal(err)
	}
	var walked uint64
	for n := uint64(1); n <= h; n++ {
		b, err := client.Block(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, tx := range b.Txs {
			if tx.Contract == "" {
				walked += tx.Value
			}
		}
	}
	res, err := client.Analytics(AnalyticsQuery{Op: AnalyticsSum, From: 1, To: h + 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != walked {
		t.Fatalf("indexed sum %d != walked sum %d over [1,%d]", res.Value, walked, h)
	}
}

// TestAnalyticsIndexToggle pins the -popt index seam: every preset
// accepts index=off (queries then error), rejects malformed values,
// and defaults to an enabled index.
func TestAnalyticsIndexToggle(t *testing.T) {
	for _, kind := range Platforms() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := fastAnalyticsCluster(t, kind, 2, 2, map[string]string{"index": "off"})
			if _, ok := c.Inner().Counters()["analytics.segments"]; ok {
				t.Fatal("index=off still built an indexer")
			}
			_, err := c.Client(0).Analytics(AnalyticsQuery{Op: AnalyticsSum, From: 1})
			if err == nil || !strings.Contains(err.Error(), "disabled") {
				t.Fatalf("query with index=off: %v", err)
			}
		})
	}
	if _, err := NewCluster(ClusterConfig{Kind: Quorum, Nodes: 2,
		Options: map[string]string{"index": "bogus"}}, 1); err == nil {
		t.Fatal("index=bogus accepted")
	}
}
