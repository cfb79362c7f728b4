package blockbench

import (
	"math/rand"
	"sync/atomic"

	"blockbench/internal/types"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "wavespresale",
		Description: "crowd-sale contract: new sales, ownership transfers and record queries",
		New: func(opts WorkloadOptions) (Workload, error) {
			return &WavesWorkload{}, NewWorkloadDecoder(opts).Finish()
		},
	})
}

// WavesWorkload drives the crowd-sale contract: new sales, ownership
// transfers of the client's own sales, and record queries.
type WavesWorkload struct {
	counters [256]atomic.Int64 // per client ID, modulo 256
}

// Name implements Workload.
func (w *WavesWorkload) Name() string { return "wavespresale" }

// Contracts implements Workload.
func (w *WavesWorkload) Contracts() []string { return []string{"wavespresale"} }

// Init implements Workload.
func (w *WavesWorkload) Init(c *Cluster, rng *rand.Rand) error { return nil }

func wavesSaleID(clientID int, i int64) []byte {
	return types.U64Bytes(uint64(clientID)<<32 | uint64(i))
}

// Next implements Workload.
func (w *WavesWorkload) Next(clientID int, rng *rand.Rand) Op {
	ctr := &w.counters[clientID%len(w.counters)]
	n := ctr.Load()
	if n == 0 || rng.Float64() < 0.5 {
		return Op{Contract: "wavespresale", Method: "newSale",
			Args: [][]byte{wavesSaleID(clientID, ctr.Add(1)), types.U64Bytes(uint64(1 + rng.Intn(100)))}}
	}
	id := wavesSaleID(clientID, 1+rng.Int63n(n))
	if rng.Float64() < 0.5 {
		return Op{Contract: "wavespresale", Method: "getSale", Args: [][]byte{id}}
	}
	// Transfer one of this client's own sales to a random address; the
	// client remains the registered caller so the owner check passes.
	to := types.BytesToAddress(randValue(rng, types.AddressSize))
	return Op{Contract: "wavespresale", Method: "transferSale", Args: [][]byte{id, to.Bytes()}}
}
