package blockbench

import (
	"math/rand"
	"sync/atomic"

	"blockbench/internal/types"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "ioheavy",
		Description: "data-model micro benchmark: bulk random reads/writes of small tuples per transaction",
		New: func(opts WorkloadOptions) (Workload, error) {
			d := NewWorkloadDecoder(opts)
			w := &IOHeavyWorkload{
				TuplesPerTx: d.Uint64("tuples", 0),
				Write:       d.Bool("write", true),
			}
			return w, d.Finish()
		},
	})
}

// IOHeavyWorkload stresses the data-model layer: each transaction
// performs TuplesPerTx random writes or reads of 20-byte keys and
// 100-byte values inside the contract.
type IOHeavyWorkload struct {
	TuplesPerTx uint64 // default 1000
	Write       bool   // writes when true, reads when false
	seed        atomic.Uint64
}

// Name implements Workload.
func (w *IOHeavyWorkload) Name() string { return "ioheavy" }

// Contracts implements Workload.
func (w *IOHeavyWorkload) Contracts() []string { return []string{"ioheavy"} }

// Init implements Workload.
func (w *IOHeavyWorkload) Init(c *Cluster, rng *rand.Rand) error { return nil }

// Next implements Workload.
func (w *IOHeavyWorkload) Next(clientID int, rng *rand.Rand) Op {
	n := w.TuplesPerTx
	if n == 0 {
		n = 1000
	}
	method := "read"
	if w.Write {
		method = "write"
	}
	seed := w.seed.Add(n) - n
	return Op{Contract: "ioheavy", Method: method,
		Args:     [][]byte{types.U64Bytes(n), types.U64Bytes(seed)},
		GasLimit: 1 << 40}
}
