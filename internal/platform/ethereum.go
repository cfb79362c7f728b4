package platform

import (
	"blockbench/internal/consensus"
	"blockbench/internal/consensus/pow"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/metrics"
	"blockbench/internal/state"
	"blockbench/internal/types"
	"blockbench/internal/workload"
)

// Ethereum is the geth v1.4.18 preset: proof-of-work consensus,
// Patricia-Merkle trie state over the key-value store with a shared LRU
// cache, EVM execution.
const Ethereum Kind = "ethereum"

// ethereumOptions are the Ethereum preset's knobs beyond the shared
// store/workers/index trio: -popt block= (target PoW interval), gas=
// (block gas limit) and cache= (LRU state cache entries, 0 = off).
type ethereumOptions struct {
	pow   pow.Options
	cache int
}

func decodeEthereum(d *workload.Decoder) ethereumOptions {
	o := ethereumOptions{pow: pow.DefaultOptions(), cache: decodeCache(d)}
	o.pow.TargetInterval = positive(d, "block", d.Duration("block", o.pow.TargetInterval))
	o.pow.GasLimit = positive(d, "gas", d.Uint64("gas", o.pow.GasLimit))
	return o
}

func ethereumPreset() *Preset {
	return &Preset{
		Kind:          Ethereum,
		Describe:      "geth v1.4.18: PoW, Patricia-Merkle trie + LRU state cache, EVM",
		SupportsForks: true,
		// confirmationLength: 5s paper / 2.5s blocks, scaled.
		ConfirmationDepth: 2,
		Build: func(cfg *Config, d *workload.Decoder) (*Assembly, error) {
			o := decodeEthereum(d)
			// Only Ethereum-lineage PoW bounds blocks by gas (the miner's
			// o.pow.GasLimit); Parity's block size is set by stepDuration
			// and Hyperledger's by batch size.
			a := &Assembly{
				NewStateFactory: trieSharedStateFactory(o.cache),
				NewConsensus: func(*Env) func(consensus.Context) consensus.Engine {
					return func(ctx consensus.Context) consensus.Engine { return pow.New(ctx, o.pow) }
				},
			}
			return a, buildEVM(cfg, d, a, gethMemModel)
		},
	}
}

// buildEVM finishes an EVM preset's assembly with what the four of them
// share: an EVM execution engine over the subset of cfg.Contracts that
// have an EVM build, and the store / workers (-popt workers=N, default
// the serial 1) / index trio.
func buildEVM(cfg *Config, d *workload.Decoder, a *Assembly, mem exec.MemModel) error {
	names, err := evmContracts(cfg)
	if err != nil {
		return err
	}
	a.NewEngine = func() (exec.Engine, error) { return exec.NewEVMEngine(mem, names...) }
	a.Workers = positive(d, "workers", d.Int("workers", 1))
	a.Index = decodeIndex(d)
	return decodeStore(cfg, d)
}

// gethMemModel is the geth-lineage memory cost model shared by the
// Ethereum, Quorum and Sharded presets: ~2.1 KB resident per sorted
// element (22.8 GB at 10M), fitted to the paper's CPUHeavy runs at
// 1/100 input scale.
var gethMemModel = exec.MemModel{Base: 20 << 20, Factor: 262, Cap: 320 << 20}

// defaultCacheEntries sizes the geth-lineage presets' LRU state cache.
const defaultCacheEntries = 4096

// decodeCache reads -popt cache=N for the geth-lineage presets.
func decodeCache(d *workload.Decoder) int {
	n := d.Int("cache", defaultCacheEntries)
	if n < 0 {
		d.Reject("cache", "want a non-negative integer (0 turns the LRU off)")
	}
	return n
}

// trieSharedStateFactory is the geth-lineage state organization shared
// by the Ethereum, Quorum and Sharded presets: a Patricia-Merkle trie
// over the node's store with one long-lived LRU node cache per node
// (none when entries is 0), shared across block executions — geth's
// partial in-memory state ("using LRU for eviction") — plus a flat
// snapshot layer in front of the trie so head-state point reads cost
// one lookup instead of a nibble walk over ever-deeper history. Roots
// are computed by the trie alone, so they are byte-identical with or
// without the flat layer; the layer's hit/miss counters surface as
// store.flat_* in reports.
func trieSharedStateFactory(entries int) func(kvstore.Store) (StateFactory, []metrics.CounterProvider, error) {
	return func(store kvstore.Store) (StateFactory, []metrics.CounterProvider, error) {
		var cache *state.SharedCache
		if entries > 0 {
			cache = state.NewSharedCache(entries)
		}
		flat := state.NewFlatState(store, entries)
		factory := func(root types.Hash) (*state.DB, error) {
			b, err := state.NewTrieBackendShared(store, root, cache, flat)
			if err != nil {
				return nil, err
			}
			return state.NewDB(b), nil
		}
		return factory, []metrics.CounterProvider{flat}, nil
	}
}
