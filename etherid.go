package blockbench

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"blockbench/internal/types"
	"blockbench/internal/workload"
)

func init() {
	workload.MustRegister(workload.Spec{
		Name:        "etherid",
		Description: "domain-name registrar contract: register, buy back and query domains",
		Contracts:   []string{"etherid"},
		New: func(opts workload.Options) (any, error) {
			if err := workload.NewDecoder(opts).Finish(); err != nil {
				return nil, err
			}
			return &EtherIdWorkload{}, nil
		},
	})
}

// EtherIdWorkload drives the domain-name registrar contract: clients
// register fresh domains and buy back their own (keeping every
// transaction valid without cross-client coordination).
type EtherIdWorkload struct {
	fillOnce sync.Once
	counters []atomic.Int64
}

func (w *EtherIdWorkload) lazyFill() {
	// Without Init (SkipInit) the first callers of Next are the clients'
	// generators, all at once.
	w.fillOnce.Do(func() { w.counters = make([]atomic.Int64, 256) })
}

// Name implements Workload.
func (w *EtherIdWorkload) Name() string { return "etherid" }

// Contracts implements Workload.
func (w *EtherIdWorkload) Contracts() []string { return []string{"etherid"} }

// Init implements Workload.
func (w *EtherIdWorkload) Init(c *Cluster, rng *rand.Rand) error {
	w.lazyFill()
	return nil
}

func (w *EtherIdWorkload) domain(clientID int, i int64) []byte {
	return types.U64Bytes(uint64(clientID)<<32 | uint64(i))
}

// Next implements Workload.
func (w *EtherIdWorkload) Next(clientID int, rng *rand.Rand) Op {
	w.lazyFill()
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
