package blockbench

import "math/rand"

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "donothing",
		Description: "consensus isolation micro benchmark: the contract returns immediately",
		New: func(opts WorkloadOptions) (Workload, error) {
			return DoNothingWorkload{}, NewWorkloadDecoder(opts).Finish()
		},
	})
}

// DoNothingWorkload isolates the consensus layer: the contract accepts a
// transaction and returns immediately, so end-to-end cost is pure
// consensus overhead.
type DoNothingWorkload struct{}

// Name implements Workload.
func (DoNothingWorkload) Name() string { return "donothing" }

// Contracts implements Workload.
func (DoNothingWorkload) Contracts() []string { return []string{"donothing"} }

// Init implements Workload.
func (DoNothingWorkload) Init(c *Cluster, rng *rand.Rand) error { return nil }

// Next implements Workload.
func (DoNothingWorkload) Next(clientID int, rng *rand.Rand) Op {
	return Op{Contract: "donothing", Method: "invoke"}
}
