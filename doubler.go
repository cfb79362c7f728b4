package blockbench

import "math/rand"

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "doubler",
		Description: "pyramid-scheme contract: every transaction is an enter() carrying value",
		New: func(opts WorkloadOptions) (Workload, error) {
			return &DoublerWorkload{}, NewWorkloadDecoder(opts).Finish()
		},
	})
}

// doublerStake is the value every enter() carries.
const doublerStake = 10

// DoublerWorkload drives the pyramid-scheme contract: every transaction
// is an enter() carrying value.
type DoublerWorkload struct{}

// Name implements Workload.
func (w *DoublerWorkload) Name() string { return "doubler" }

// Contracts implements Workload.
func (w *DoublerWorkload) Contracts() []string { return []string{"doubler"} }

// Init implements Workload.
func (w *DoublerWorkload) Init(c *Cluster, rng *rand.Rand) error { return nil }

// Next implements Workload.
func (w *DoublerWorkload) Next(clientID int, rng *rand.Rand) Op {
	return Op{Contract: "doubler", Method: "enter", Value: doublerStake}
}
