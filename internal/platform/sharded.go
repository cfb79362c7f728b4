package platform

import (
	"fmt"
	"strings"

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
// Placement defaults to hash partitioning; -popt partitioner=range
// switches to range placement (scan-friendly co-location, hotspot
// sensitive), with explicit split points via -popt bounds=k1,k2 or an
// even leading-byte split when none are given. The per-group Raft
// engines take the same -popt knobs as the quorum preset.
const Sharded Kind = "sharded"

// shardedOptions are quorum's knobs plus placement: -popt shards=N
// (default min(4, nodes), clamped to nodes), partitioner=hash|range and
// bounds=k1,k2 (range split points, len+1 shards).
type shardedOptions struct {
	quorumOptions
	shards int
	ranged bool
	bounds [][]byte
}

func decodeSharded(cfg *Config, d *workload.Decoder) shardedOptions {
	o := shardedOptions{quorumOptions: decodeQuorum(cfg, d)}
	if d.Has("shards") {
		o.shards = positive(d, "shards", d.Int("shards", 0))
	}
	switch d.String("partitioner", "hash") {
	case "hash":
	case "range":
		o.ranged = true
	default:
		d.Reject("partitioner", "want hash or range")
	}
	if d.Has("bounds") {
		if !o.ranged {
			d.Reject("bounds", "requires partitioner=range")
		}
		seen := make(map[string]bool)
		for _, b := range strings.Split(d.String("bounds", ""), ",") {
			if b == "" {
				d.Reject("bounds", "empty split point")
			}
			if seen[b] {
				// A duplicate split point would pin an extra shard group
				// no key can ever reach.
				d.Reject("bounds", fmt.Sprintf("duplicate split point %q", b))
			}
			seen[b] = true
			o.bounds = append(o.bounds, []byte(b))
		}
		// Explicit split points pin the shard count: every router must
		// place keys over exactly these ranges.
		n := len(o.bounds) + 1
		if o.shards > 0 && o.shards != n {
			d.Reject("bounds", fmt.Sprintf("%d bounds make %d shards, but shards=%d was requested",
				len(o.bounds), n, o.shards))
		}
		if n > cfg.Nodes {
			d.Reject("bounds", fmt.Sprintf("%d bounds make %d shards, but only %d nodes",
				len(o.bounds), n, cfg.Nodes))
		}
		o.shards = n
	}
	if o.shards == 0 {
		o.shards = sharding.DefaultOptions().Shards
	}
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
			opts := sharding.DefaultOptions()
			opts.Shards = o.shards
			opts.Partitioner = o.partitioner()
			opts.Raft = o.raft
			opts.Seed = cfg.Net.Seed
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

// partitioner builds the placement function every node of the cluster
// shares (construction must be deterministic from the options — all
// routers have to agree). nil lets the sharding engine default to hash
// partitioning over the clamped shard count.
func (o *shardedOptions) partitioner() sharding.Partitioner {
	if !o.ranged {
		return nil
	}
	bounds := o.bounds
	if bounds == nil {
		// No explicit split points: split the key space evenly by leading
		// byte. Workloads whose keys share a prefix will hotspot one range —
		// pass -popt bounds= split points matched to the key population.
		bounds = make([][]byte, o.shards-1)
		for i := range bounds {
			bounds[i] = []byte{byte(256 * (i + 1) / o.shards)}
		}
	}
	return sharding.NewRangePartitioner(bounds...)
}
