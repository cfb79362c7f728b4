package experiments

import (
	"strconv"
	"time"

	"blockbench"
)

// AblationInbox isolates the mechanism behind Hyperledger's collapse at
// scale: with bounded per-node message channels (the real system's
// behaviour), PBFT under load drops consensus messages, diverges views
// and stalls; with effectively unbounded channels the same deployment
// keeps committing. This confirms the paper's diagnosis that "consensus
// messages are rejected ... on account of the message channel being
// full" — an implementation artifact, not a protocol property.
func AblationInbox(s Scale) (*Result, error) {
	res := &Result{ID: "abl-inbox", Title: "PBFT: bounded vs unbounded message channels"}
	n := 16
	if s.Shrink > 1 {
		n = 8
	}
	for _, inbox := range []int{256, 1 << 20} {
		w := macroWorkload("ycsb", s)
		r, err := measure(blockbench.Hyperledger, n, n, w, blockbench.RunConfig{
			Threads: 4, Rate: 256, Duration: s.Duration,
		}, func(cfg *blockbench.ClusterConfig) {
			cfg.Net.BaseLatency = 200 * time.Microsecond
			cfg.Net.Jitter = 300 * time.Microsecond
			cfg.Net.Bandwidth = 125_000_000
			cfg.Net.InboxSize = inbox
			cfg.Net.Seed = 1
		})
		if err != nil {
			return nil, err
		}
		res.addf("inbox=%7d nodes=%d -> %7.1f tx/s, dropped=%d msgs", inbox, n, r.Throughput, r.MsgsDropped)
	}
	return res, nil
}

// AblationStateCache toggles the Ethereum preset's LRU state cache, the
// design choice that lets geth handle states larger than memory at the
// cost of read throughput (§4.2.2's caching discussion).
func AblationStateCache(s Scale) (*Result, error) {
	res := &Result{ID: "abl-cache", Title: "Ethereum: LRU state cache on/off (YCSB)"}
	for _, entries := range []int{0, 4096, 65_536} { // 0 turns the LRU off
		w := macroWorkload("ycsb", s)
		r, err := measure(blockbench.Ethereum, 4, 4, w, blockbench.RunConfig{
			Threads: 4, Rate: 256, Duration: s.Duration,
		}, func(cfg *blockbench.ClusterConfig) {
			cfg.Options["cache"] = strconv.Itoa(entries)
		})
		if err != nil {
			return nil, err
		}
		res.addf("cache=%6d entries -> %7.1f tx/s, lat %6.3fs", entries, r.Throughput, r.LatencyMean)
	}
	return res, nil
}

// AblationParitySigning removes the server-side signing cost from the
// Parity preset. Throughput jumps accordingly, isolating the bottleneck
// the paper identified ("the bottleneck in Parity is caused by
// transaction signing ... not due to consensus or transaction
// execution").
func AblationParitySigning(s Scale) (*Result, error) {
	res := &Result{ID: "abl-signing", Title: "Parity: server-side signing cost on/off"}
	for _, cost := range []time.Duration{22 * time.Millisecond, 2 * time.Millisecond, 100 * time.Microsecond} {
		w := macroWorkload("ycsb", s)
		r, err := measure(blockbench.Parity, 4, 4, w, blockbench.RunConfig{
			Threads: 4, Rate: 512, Duration: s.Duration,
		}, func(cfg *blockbench.ClusterConfig) {
			cfg.Options["ingest"] = cost.String()
		})
		if err != nil {
			return nil, err
		}
		res.addf("ingest cost=%8v -> %7.1f tx/s", cost, r.Throughput)
	}
	return res, nil
}
