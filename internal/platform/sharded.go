package platform

import (
	"blockbench/internal/consensus"
	"blockbench/internal/sharding"
	"blockbench/internal/workload"
)

// Sharded is the partitioned-execution preset: the database scaling
// technique the paper's conclusion singles out as absent from private
// blockchains. State is partitioned over S shard groups; each group is
// an independent Raft-ordered pipeline (its own leader, batching,
// ledger and pool) reusing the Quorum stack, so single-shard
// transactions commit without touching any other group. Transactions
// whose keys span shards run two-phase commit across the touched
// groups' leaders (prepare/lock, unanimous commit, abort-retry with
// backoff) — the cross-partition path whose cost the shard-scaling
// benchmark measures against the fast path.
//
// Placement is by key hash; the per-group Raft engines take the same
// -popt knobs as the quorum preset.
const Sharded Kind = "sharded"

// shardedOptions are quorum's knobs plus -popt shards=N (default
// min(4, nodes), clamped to nodes).
type shardedOptions struct {
	quorumOptions
	shards int
}

func decodeSharded(cfg *Config, d *workload.Decoder) shardedOptions {
	o := shardedOptions{quorumOptions: decodeQuorum(cfg, d)}
	o.shards = positive(d, "shards", d.Int("shards", sharding.DefaultOptions().Shards))
	if o.shards > cfg.Nodes {
		o.shards = cfg.Nodes
	}
	return o
}

func shardedPreset() *Preset {
	return &Preset{
		Kind:     Sharded,
		Describe: "sharded execution: partitioned state, per-shard Raft groups, cross-shard 2PC",
		// Per-shard Raft never forks, but the trie keeps historical
		// roots for versioned-state queries, as on Quorum.
		SupportsForks:   true,
		DurableRecovery: true,
		Build: func(cfg *Config, d *workload.Decoder) (*Assembly, error) {
			o := decodeSharded(cfg, d)
			opts := sharding.Options{Shards: o.shards, Raft: o.raft, Seed: cfg.Net.Seed}
			// Same geth lineage as Quorum: EVM, trie state, shared LRU.
			a := &Assembly{
				NewStateFactory: trieSharedStateFactory(o.cache),
				NewConsensus: func(*Env) func(consensus.Context) consensus.Engine {
					return func(ctx consensus.Context) consensus.Engine { return sharding.New(ctx, opts) }
				},
			}
			return a, buildEVM(cfg, d, a, gethMemModel)
		},
	}
}
