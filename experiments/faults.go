package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"blockbench"
)

// Fig9CrashFault reproduces Fig 9: 4 servers are killed mid-run at 12
// and 16 servers. Ethereum and Parity shrug; Hyperledger with 12 servers
// loses its quorum (f=3 tolerates at most 3 failures) and stops
// committing, while 16 servers (f=5) recover at a lower rate.
//
// The kills are real process kills over a persistent (LSM) store where
// the preset supports one: the node's in-memory state is torn down with
// a genuinely torn WAL tail, and the recovery at 3/4 of the run rebuilds
// each node from its own disk (WAL replay + block journal + consensus
// hard state) before it rejoins — so the tail of the commit series also
// shows the paper's systems climbing back after the operators restart
// the dead servers.
func Fig9CrashFault(s Scale) (*Result, error) {
	res := &Result{ID: "fig9", Title: "committed tx over time, 4 servers killed mid-run, recovered at 3/4"}
	sizes := scaleSweep(s, []int{12, 16}, []int{8})
	for _, kind := range blockbench.Platforms() {
		for _, n := range sizes {
			w := macroWorkload("ycsb", s)
			// Kill 4 nodes at the halfway point (the paper's 250th
			// second of a 400 s run) and restart them at 3/4, as a
			// declarative timeline the driver executes and stamps into
			// the series.
			var events []blockbench.Event
			for i := n - 4; i < n; i++ {
				events = append(events,
					blockbench.CrashNode(s.Duration/2, i),
					blockbench.RecoverNode(3*s.Duration/4, i))
			}
			r, err := measure(kind, n, 8, w, blockbench.RunConfig{
				Clients: 8, Threads: 4, Rate: 64, Duration: s.Duration,
				Events:          events,
				CheckInvariants: true,
			}, func(cfg *blockbench.ClusterConfig) {
				// Durable per-node stores where the preset has them
				// (hyperledger keeps its fixed default and recovers via
				// chain sync from its peers instead).
				if kind != blockbench.Hyperledger {
					cfg.StoreBackend = "lsm"
				}
			})
			if err != nil {
				return nil, err
			}
			row := fmtSeries(r.CommitSeries, 2)
			if len(r.Invariants) > 0 {
				row += fmt.Sprintf("  INVARIANT VIOLATIONS=%d", len(r.Invariants))
			}
			res.addf("%-12s n=%2d commits/bucket: %s", kind, n, row)
		}
	}
	return res, nil
}

// Fig10PartitionAttack reproduces Fig 10: the network is split in half
// for part of the run, simulating an eclipse/BGP-style attack. Ethereum
// and Parity fork (up to ~30% of blocks end up off the main branch, the
// double-spending window); Hyperledger cannot fork but takes longer to
// recover after the partition heals.
func Fig10PartitionAttack(s Scale) (*Result, error) {
	res := &Result{ID: "fig10", Title: "partition attack: total vs main-chain blocks"}
	for _, kind := range blockbench.Platforms() {
		w := macroWorkload("ycsb", s)
		c, err := newCluster(kind, 8, 8, w, nil)
		if err != nil {
			return nil, err
		}
		if err := w.Init(c, rand.New(rand.NewSource(7))); err != nil {
			c.Stop()
			return nil, err
		}
		c.Start()

		// Partition at 1/4 of the run, heal at 3/4 (paper: attack from
		// t=100 s lasting 150 s of a 400 s run) — scheduled, not
		// hand-rolled, so the firings land in the report's timeline and
		// the recorded series.
		r, err := drive(c, w, blockbench.RunConfig{
			Clients: 8, Threads: 2, Rate: 32, Duration: s.Duration,
			Events: []blockbench.Event{
				blockbench.Partition(s.Duration/4, 4),
				blockbench.Heal(3 * s.Duration / 4),
			},
		})
		if err != nil {
			c.Stop()
			return nil, err
		}
		// Give healing a moment, then read the security metric.
		time.Sleep(time.Second)
		total, main := c.ForkStats()
		c.Stop()
		stale := uint64(0)
		if total > main {
			stale = total - main
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(stale) / float64(total)
		}
		res.addf("%-12s total=%4d main=%4d stale=%3d (%.1f%% of blocks in forks), committed=%d",
			kind, total, main, stale, pct, r.Committed)
	}
	return res, nil
}

// Fig16Utilization reproduces Fig 16: CPU and network profiles under
// YCSB at 8x8. Ethereum is CPU-bound (mining), Hyperledger is
// communication-bound (PBFT's O(N^2) messages), Parity uses little of
// either.
func Fig16Utilization(s Scale) (*Result, error) {
	res := &Result{ID: "fig16", Title: "resource utilization (YCSB, 8x8)"}
	// Per-hash cost calibrated from Go's SHA-256 over the 40-byte seal
	// buffer. CPU is reported against each node's mining/execution
	// budget (the simulated miners are single-threaded; geth saturated
	// its reserved cores the same way, just with more of them).
	const nsPerHash = 280.0
	for _, kind := range blockbench.Platforms() {
		w := macroWorkload("ycsb", s)
		r, err := measure(kind, 8, 8, w, blockbench.RunConfig{
			Threads: 4, Rate: 128, Duration: s.Duration,
		}, nil)
		if err != nil {
			return nil, err
		}
		cpuSec := float64(r.PowHashes())*nsPerHash/1e9 + r.ExecTime().Seconds()
		cpuPct := 100 * cpuSec / (r.Duration.Seconds() * float64(r.Nodes))
		res.addf("%-12s cpu=%5.1f%% of %d nodes x 1 core, net=%7.2f MB/s, msgs=%d",
			kind, cpuPct, r.Nodes, r.NetworkMBps(), r.MsgsSent)
	}
	return res, nil
}
