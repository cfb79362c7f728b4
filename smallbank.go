package blockbench

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"blockbench/internal/types"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "smallbank",
		Description: "OLTP macro benchmark: bank accounts driven by the standard Smallbank procedure mix",
		New: func(opts WorkloadOptions) (Workload, error) {
			d := NewWorkloadDecoder(opts)
			w := &SmallbankWorkload{
				Accounts:       d.Int("accounts", d.Int("records", 0)),
				InitialBalance: d.Uint64("balance", 0),
			}
			return w, d.Finish()
		},
	})
}

// SmallbankWorkload is the OLTP macro benchmark: bank accounts with
// savings and checking balances and the Smallbank procedure mix.
type SmallbankWorkload struct {
	Accounts       int    // default 1000
	InitialBalance uint64 // default 10000 in each of savings/checking

	fillOnce sync.Once
}

// Name implements Workload.
func (w *SmallbankWorkload) Name() string { return "smallbank" }

// Contracts implements Workload.
func (w *SmallbankWorkload) Contracts() []string { return []string{"smallbank"} }

// lazyFill applies defaults exactly once: without Init (SkipInit) the
// first callers of Next are the clients' generators, all at once.
func (w *SmallbankWorkload) lazyFill() { w.fillOnce.Do(w.fill) }

func (w *SmallbankWorkload) fill() {
	if w.Accounts <= 0 {
		w.Accounts = 1000
	}
	if w.InitialBalance == 0 {
		w.InitialBalance = 10_000
	}
}

func sbAcct(i int) []byte { return types.U64Bytes(uint64(i)) }

// Init implements Workload: funds every account.
func (w *SmallbankWorkload) Init(c *Cluster, rng *rand.Rand) error {
	w.lazyFill()
	ops := make([]Op, 0, 2*w.Accounts)
	for i := 0; i < w.Accounts; i++ {
		ops = append(ops,
			Op{Contract: "smallbank", Method: "depositChecking",
				Args: [][]byte{sbAcct(i), types.U64Bytes(w.InitialBalance)}},
			Op{Contract: "smallbank", Method: "transactSavings",
				Args: [][]byte{sbAcct(i), types.U64Bytes(w.InitialBalance)}})
	}
	return c.preloadOps(ops, 400)
}

// CheckInvariants implements WorkloadInvariants: after a fault-injected
// run, every live node in a shard group must report the same balance
// for every sampled account — replicas of one state machine cannot
// disagree, no matter what was killed or partitioned mid-run. (The mix
// itself mints and burns money through deposits and checks, so
// replica agreement, not global conservation, is the workload-level
// safety property.) A short retry loop absorbs tail commits that land
// while the check walks the nodes.
func (w *SmallbankWorkload) CheckInvariants(c *Cluster) []string {
	w.lazyFill()
	sample := w.Accounts
	if sample > 32 {
		sample = 32
	}
	groups := make(map[int][]int)
	for i := 0; i < c.Size(); i++ {
		if c.Down(i) {
			continue
		}
		groups[c.ShardOf(i)] = append(groups[c.ShardOf(i)], i)
	}
	var out []string
	for g, nodes := range groups {
		if len(nodes) < 2 {
			continue
		}
		for a := 0; a < sample; a++ {
			if detail, ok := w.balancesAgree(c, nodes, a); !ok {
				out = append(out, fmt.Sprintf(
					"smallbank: shard %d: live nodes disagree on account %d: %s", g, a, detail))
			}
		}
	}
	return out
}

// balancesAgree polls getBalance for one account on every listed node
// until all answers match (or the retry budget runs out, returning the
// last disagreeing set).
func (w *SmallbankWorkload) balancesAgree(c *Cluster, nodes []int, acct int) (string, bool) {
	last := "unreachable"
	for attempt := 0; attempt < 80; attempt++ {
		if attempt > 0 {
			time.Sleep(25 * time.Millisecond)
		}
		// Only compare replicas sitting at the same chain height:
		// deterministic execution of the same prefix must match, while a
		// recovering replica mid-catch-up legitimately answers from an
		// older state. A replica that never reaches its peers within the
		// budget is reported too — that is a stuck node, not a race.
		h := c.NodeHeight(nodes[0])
		same := true
		for _, i := range nodes[1:] {
			if c.NodeHeight(i) != h {
				same = false
				break
			}
		}
		if !same {
			hs := make([]uint64, len(nodes))
			for j, i := range nodes {
				hs[j] = c.NodeHeight(i)
			}
			last = fmt.Sprintf("replica heights never converged on nodes %v: %v", nodes, hs)
			continue
		}
		vals := make([][]byte, 0, len(nodes))
		for _, i := range nodes {
			out, err := c.nodeAt(i).Query("smallbank", "getBalance", [][]byte{sbAcct(acct)})
			if err != nil || len(out) == 0 {
				vals = nil
				break
			}
			vals = append(vals, out)
		}
		if vals == nil {
			continue // a node went down mid-check; retry the whole row
		}
		// Compare raw answer bytes: every replica runs the same engine,
		// so agreement must hold bytewise regardless of how that engine
		// encodes its return value (8-byte native vs 32-byte EVM word).
		agree := true
		for _, v := range vals[1:] {
			if !bytes.Equal(v, vals[0]) {
				agree = false
				break
			}
		}
		if agree {
			return "", true
		}
		hexed := make([]string, len(vals))
		for i, v := range vals {
			hexed[i] = fmt.Sprintf("%x", v)
		}
		last = fmt.Sprintf("balances %v on nodes %v", hexed, nodes)
	}
	return last, false
}

// Next implements Workload: the standard Smallbank mix.
func (w *SmallbankWorkload) Next(clientID int, rng *rand.Rand) Op {
	w.lazyFill()
	a, b := sbAcct(rng.Intn(w.Accounts)), sbAcct(rng.Intn(w.Accounts))
	amt := types.U64Bytes(uint64(1 + rng.Intn(50)))
	switch rng.Intn(6) {
	case 0:
		return Op{Contract: "smallbank", Method: "transactSavings", Args: [][]byte{a, amt}}
	case 1:
		return Op{Contract: "smallbank", Method: "depositChecking", Args: [][]byte{a, amt}}
	case 2, 3:
		return Op{Contract: "smallbank", Method: "sendPayment", Args: [][]byte{a, b, amt}}
	case 4:
		return Op{Contract: "smallbank", Method: "writeCheck", Args: [][]byte{a, amt}}
	default:
		return Op{Contract: "smallbank", Method: "amalgamate", Args: [][]byte{a, b}}
	}
}
