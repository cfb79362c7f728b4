package platform

import (
	"blockbench/internal/bmt"
	"blockbench/internal/consensus"
	"blockbench/internal/consensus/pbft"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/metrics"
	"blockbench/internal/state"
	"blockbench/internal/types"
	"blockbench/internal/workload"
)

// Hyperledger is the Hyperledger Fabric v0.6.0-preview preset: PBFT
// consensus over transaction batches, Bucket-Merkle tree state, native
// chaincode execution, signature verification on ingress.
const Hyperledger Kind = "hyperledger"

// decodeHyperledger reads the Hyperledger preset's consensus knobs:
// -popt batch= (Fabric's batchSize), batchtimeout= (partial-batch
// timer) and viewtimeout= (view-change timer). Its storage and
// execution engines are fixed, so beyond these it takes only the
// platform-neutral index key.
func decodeHyperledger(d *workload.Decoder) pbft.Options {
	o := pbft.DefaultOptions()
	o.BatchSize = positive(d, "batch", d.Int("batch", o.BatchSize))
	o.BatchTimeout = positive(d, "batchtimeout", d.Duration("batchtimeout", o.BatchTimeout))
	o.ViewTimeout = positive(d, "viewtimeout", d.Duration("viewtimeout", o.ViewTimeout))
	return o
}

func hyperledgerPreset() *Preset {
	return &Preset{
		Kind:     Hyperledger,
		Describe: "Fabric v0.6.0-preview: PBFT, Bucket-Merkle tree, native chaincode",
		// Progress requires a live quorum, so blocks are final on commit:
		// the protocol never forks.
		SupportsForks: false,
		Build: func(cfg *Config, d *workload.Decoder) (*Assembly, error) {
			o := decodeHyperledger(d)
			return &Assembly{
				Index: decodeIndex(d),
				NewEngine: func() (exec.Engine, error) {
					return exec.NewNativeEngine(cfg.Contracts...)
				},
				NewStateFactory: func(store kvstore.Store) (StateFactory, []metrics.CounterProvider, error) {
					// Bucket tree keeps no versions: one long-lived DB per node.
					b, err := state.NewBucketBackend(store, bmt.Options{})
					if err != nil {
						return nil, nil, err
					}
					db := state.NewDB(b)
					return func(types.Hash) (*state.DB, error) { return db, nil }, nil, nil
				},
				NewConsensus: func(*Env) func(consensus.Context) consensus.Engine {
					return func(ctx consensus.Context) consensus.Engine { return pbft.New(ctx, o) }
				},
			}, nil
		},
	}
}
