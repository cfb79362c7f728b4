package platform

import (
	"fmt"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/raft"
	"blockbench/internal/workload"
)

// Quorum is the Raft-ordered preset: a geth-lineage platform (trie
// state, EVM execution, client-side signing) whose consensus is Raft —
// crash-fault-tolerant leader-based ordering instead of PoW. It mirrors
// how real permissioned stacks (JPMC Quorum, Fabric v1 Kafka ordering)
// moved from Byzantine agreement to cheaper ordering for throughput:
// O(N) replication messages per batch and immediate finality, at the
// price of tolerating only crash faults (f < N/2, no Byzantine nodes).
//
// The engine is event-driven and pipelined (propose-time replication,
// leader-lease reads, log compaction); its knobs are exposed as generic
// platform options: -popt heartbeat=10ms,batch=32,retain=4096
// (retain=0 disables compaction). -popt workers=N turns on intra-block
// parallel execution (exec/parallel).
const Quorum Kind = "quorum"

// quorumOptions are the Raft-backed presets' knobs beyond the shared
// store/workers/index trio; the sharded preset's per-shard groups take
// the same set.
type quorumOptions struct {
	raft  raft.Options
	cache int // LRU state cache entries, as on ethereum
}

// decodeQuorum overlays the Raft keys — election=, heartbeat=, batch=,
// batchtimeout=, retain= — on the engine's own defaults. retain=0
// disables compaction, which is why it alone may be zero.
func decodeQuorum(cfg *Config, d *workload.Decoder) quorumOptions {
	o := quorumOptions{raft: raft.DefaultOptions(), cache: decodeCache(d)}
	r := &o.raft
	r.ElectionTimeout = positive(d, "election", d.Duration("election", r.ElectionTimeout))
	r.Heartbeat = positive(d, "heartbeat", d.Duration("heartbeat", r.Heartbeat))
	r.BatchSize = positive(d, "batch", d.Int("batch", r.BatchSize))
	r.BatchTimeout = positive(d, "batchtimeout", d.Duration("batchtimeout", r.BatchTimeout))
	if r.Retain = d.Int("retain", r.Retain); r.Retain < 0 {
		d.Reject("retain", "want a non-negative integer (0 disables compaction)")
	}
	if r.Heartbeat >= r.ElectionTimeout {
		d.Reject("heartbeat", fmt.Sprintf("heartbeat %v must stay well below the election timeout %v",
			r.Heartbeat, r.ElectionTimeout))
	}
	r.Seed = cfg.Net.Seed
	return o
}

func quorumPreset() *Preset {
	return &Preset{
		Kind:     Quorum,
		Describe: "Quorum (geth fork): Raft-ordered CFT consensus, trie state, EVM",
		// Raft never forks, but the trie keeps historical roots, so the
		// ledger's versioned-state queries (analytics Q2) stay available.
		SupportsForks:   true,
		DurableRecovery: true,
		// Blocks are batch-bounded like PBFT, not gas-bounded, and
		// final on commit: no confirmation depth.
		Build: func(cfg *Config, d *workload.Decoder) (*Assembly, error) {
			o := decodeQuorum(cfg, d)
			// Same geth lineage as the Ethereum preset: EVM, trie state
			// with a shared per-node LRU, and the geth memory cost model.
			a := &Assembly{
				NewStateFactory: trieSharedStateFactory(o.cache),
				NewConsensus: func(*Env) func(consensus.Context) consensus.Engine {
					return func(ctx consensus.Context) consensus.Engine { return raft.New(ctx, o.raft) }
				},
			}
			return a, buildEVM(cfg, d, a, gethMemModel)
		},
	}
}
