package platform

import (
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/poa"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/metrics"
	"blockbench/internal/state"
	"blockbench/internal/types"
	"blockbench/internal/workload"
)

// Parity is the Parity v1.6.0 preset: Proof-of-Authority consensus, all
// state pinned in memory, EVM execution, server-side transaction
// signing (the bottleneck the paper identified).
const Parity Kind = "parity"

// parityOptions are the Parity preset's knobs beyond the shared
// store/workers/index trio: -popt step= (PoA slot width), ingest=
// (per-transaction server processing, the signing bottleneck) and
// memcap= (bytes of pinned state before the paper's OOM 'X').
type parityOptions struct {
	poa    poa.Options
	ingest time.Duration
	memCap int
}

func decodeParity(d *workload.Decoder) parityOptions {
	o := parityOptions{poa: poa.DefaultOptions(), ingest: 180 * time.Millisecond, memCap: 256 << 20}
	o.poa.StepDuration = positive(d, "step", d.Duration("step", o.poa.StepDuration))
	o.ingest = positive(d, "ingest", d.Duration("ingest", o.ingest))
	o.memCap = positive(d, "memcap", d.Int("memcap", o.memCap))
	return o
}

func parityPreset() *Preset {
	return &Preset{
		Kind:          Parity,
		Describe:      "Parity v1.6.0: PoA, state pinned in memory, EVM, server-side signing",
		ServerSigns:   true,
		SupportsForks: true,
		// 5s confirmation / 1s steps, scaled.
		ConfirmationDepth: 5,
		Build: func(cfg *Config, d *workload.Decoder) (*Assembly, error) {
			o := decodeParity(d)
			a := &Assembly{
				IngestCost: o.ingest,
				OpenStore: func(i int) (kvstore.Store, error) {
					// "In Parity, the entire block content is kept in memory" — a
					// capped in-memory store; exhausting it is the paper's OOM 'X'.
					// -popt store=lsm swaps in the shared disk-backed policy to
					// measure the pinned-memory model against bounded memory.
					if cfg.StoreBackend == "lsm" {
						return defaultOpenStore(cfg, i)
					}
					return kvstore.NewMemCapped(int64(o.memCap)), nil
				},
				NewStateFactory: func(store kvstore.Store) (StateFactory, []metrics.CounterProvider, error) {
					return func(root types.Hash) (*state.DB, error) {
						b, err := state.NewTrieBackend(store, root, 0)
						if err != nil {
							return nil, err
						}
						return state.NewDB(b), nil
					}, nil, nil
				},
				NewConsensus: func(env *Env) func(consensus.Context) consensus.Engine {
					opts := o.poa
					opts.Authorities = env.Authorities
					return func(ctx consensus.Context) consensus.Engine { return poa.New(ctx, opts) }
				},
			}
			// Parity: ~135 B per element (13 GB at 100M), at 1/100 scale.
			return a, buildEVM(cfg, d, a, exec.MemModel{Base: 6 << 20, Factor: 17, Cap: 320 << 20})
		},
	}
}
