package blockbench

import (
	"math/rand"

	"blockbench/internal/types"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "cpuheavy",
		Description: "execution-layer micro benchmark: each transaction quicksorts an N-element array",
		New: func(opts WorkloadOptions) (Workload, error) {
			d := NewWorkloadDecoder(opts)
			w := &CPUHeavyWorkload{N: d.Uint64("n", 0)}
			return w, d.Finish()
		},
	})
}

// CPUHeavyWorkload stresses the execution layer: each transaction
// initializes an N-element descending array and quicksorts it.
type CPUHeavyWorkload struct{ N uint64 }

// Name implements Workload.
func (w *CPUHeavyWorkload) Name() string { return "cpuheavy" }

// Contracts implements Workload.
func (w *CPUHeavyWorkload) Contracts() []string { return []string{"cpuheavy"} }

// Init implements Workload.
func (w *CPUHeavyWorkload) Init(c *Cluster, rng *rand.Rand) error { return nil }

// Next implements Workload.
func (w *CPUHeavyWorkload) Next(clientID int, rng *rand.Rand) Op {
	n := w.N
	if n == 0 {
		n = 10_000
	}
	return Op{Contract: "cpuheavy", Method: "sort",
		Args: [][]byte{types.U64Bytes(n)}, GasLimit: 1 << 50}
}
