package blockbench

import (
	"math/rand"
	"sync/atomic"

	"blockbench/internal/types"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "etherid",
		Description: "domain-name registrar contract: register, buy back and query domains",
		New: func(opts WorkloadOptions) (Workload, error) {
			return &EtherIdWorkload{}, NewWorkloadDecoder(opts).Finish()
		},
	})
}

// EtherIdWorkload drives the domain-name registrar contract: clients
// register fresh domains and buy back their own (keeping every
// transaction valid without cross-client coordination).
type EtherIdWorkload struct {
	counters [256]atomic.Int64 // per client ID, modulo 256
}

// Name implements Workload.
func (w *EtherIdWorkload) Name() string { return "etherid" }

// Contracts implements Workload.
func (w *EtherIdWorkload) Contracts() []string { return []string{"etherid"} }

// Init implements Workload.
func (w *EtherIdWorkload) Init(c *Cluster, rng *rand.Rand) error { return nil }

func (w *EtherIdWorkload) domain(clientID int, i int64) []byte {
	return types.U64Bytes(uint64(clientID)<<32 | uint64(i))
}

// Next implements Workload.
func (w *EtherIdWorkload) Next(clientID int, rng *rand.Rand) Op {
	ctr := &w.counters[clientID%len(w.counters)]
	n := ctr.Load()
	if n == 0 || rng.Float64() < 0.6 {
		return Op{Contract: "etherid", Method: "register",
			Args: [][]byte{w.domain(clientID, ctr.Add(1)), types.U64Bytes(10)}}
	}
	d := w.domain(clientID, 1+rng.Int63n(n))
	if rng.Float64() < 0.5 {
		return Op{Contract: "etherid", Method: "buy", Args: [][]byte{d}, Value: 20}
	}
	return Op{Contract: "etherid", Method: "query", Args: [][]byte{d}}
}
