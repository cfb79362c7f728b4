package blockbench

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"blockbench/internal/types"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "htap",
		Description: "HTAP mix: OLTP value transfers with concurrent server-side analytical scans over committed history",
		New: func(opts WorkloadOptions) (Workload, error) {
			d := NewWorkloadDecoder(opts)
			w := &HTAP{QueryEvery: d.Int("qevery", 0)}
			return w, d.Finish()
		},
	})
}

// HTAP is the hybrid workload the analytics index exists for: the
// driver's submit pipeline keeps committing OLTP value transfers while
// every QueryEvery-th generated operation first runs one synchronous
// analytical query (rotating sum / max-delta / top-k counterparties)
// over a trailing window of committed history at the generating
// client's server. The scans ride the columnar index, so they cost the
// server microseconds, not a walk over the chain — and the workload
// measures exactly the interference between the two sides.
//
// The OLTP side transfers among the accounts of every client key.
//
// Requires the analytics index (`-popt index=on`, the default); Init
// fails fast when it is disabled.
type HTAP struct {
	QueryEvery int // one analytical query per this many ops (default 32)

	hyperledger bool
	cluster     *Cluster
	accts       []Address
	ops         atomic.Uint64
	lastHeight  atomic.Uint64 // newest height a query has observed
	queries     atomic.Uint64
}

// Name identifies the workload in reports.
func (w *HTAP) Name() string { return "htap" }

// Contracts lists required contracts (Hyperledger only).
func (w *HTAP) Contracts() []string { return []string{"versionkv"} }

const (
	htapWindow        = 256 // trailing scan window in blocks
	htapTopK          = 5   // top-k size
	htapPreloadBlocks = 32  // seeded history before the run
	htapTxPerBlock    = 3   // preload transactions per block
)

// Init seeds a small history (so the first scans have a range to
// cover) and verifies the analytics index is live.
func (w *HTAP) Init(c *Cluster, rng *rand.Rand) error {
	if w.QueryEvery <= 0 {
		w.QueryEvery = 32
	}
	w.cluster = c
	w.hyperledger = c.Kind() == Hyperledger
	w.accts = make([]Address, len(c.keys))
	for i := range w.accts {
		w.accts[i] = c.keys[i].Address()
	}

	var ops []Op
	if w.hyperledger {
		for _, a := range w.accts {
			ops = append(ops, Op{Contract: "versionkv", Method: "prealloc",
				Args: [][]byte{a.Bytes(), types.U64Bytes(1 << 40)}})
		}
	}
	for i := 0; i < htapPreloadBlocks*htapTxPerBlock; i++ {
		ops = append(ops, w.transfer(rng))
	}
	if err := c.preloadOps(ops, htapTxPerBlock); err != nil {
		return err
	}
	// Fail fast when the index is off — every analytical op would error.
	if _, err := c.Client(0).Analytics(AnalyticsQuery{Op: AnalyticsSum, From: 1}); err != nil {
		return fmt.Errorf("htap needs the analytics index (-popt index=on): %w", err)
	}
	return nil
}

// Next emits the next OLTP transfer; every QueryEvery-th call first
// runs one synchronous analytical query at the generating client's
// server, so analytical read latency directly throttles the submit
// side — the HTAP interference under test.
func (w *HTAP) Next(clientID int, rng *rand.Rand) Op {
	if len(w.accts) == 0 {
		return Op{Value: 1} // Init never ran (SkipInit): degrade, don't panic
	}
	n := w.ops.Add(1)
	if w.cluster != nil && n%uint64(w.QueryEvery) == 0 {
		w.analyticalQuery(int(n)/w.QueryEvery, clientID, rng)
	}
	return w.transfer(rng)
}

// transfer draws one OLTP value transfer between workload accounts.
func (w *HTAP) transfer(rng *rand.Rand) Op {
	from := rng.Intn(len(w.accts))
	to := (from + 1 + rng.Intn(max(len(w.accts)-1, 1))) % len(w.accts)
	val := uint64(1 + rng.Intn(1000))
	if w.hyperledger {
		return Op{Contract: "versionkv", Method: "sendValue",
			Args: [][]byte{w.accts[from].Bytes(), w.accts[to].Bytes(), types.U64Bytes(val)}}
	}
	return Op{To: w.accts[to], Value: val}
}

// analyticalQuery runs one scan over the trailing htapWindow blocks,
// rotating through the three query shapes. To is left open (0): the
// server clamps it to its confirmation height, so scans only ever see
// committed history.
func (w *HTAP) analyticalQuery(seq, clientID int, rng *rand.Rand) {
	client := w.cluster.Client(clientID % len(w.cluster.keys))
	var from uint64 = 1
	if h := w.lastHeight.Load(); h > htapWindow {
		from = h - htapWindow
	}
	q := AnalyticsQuery{From: from, K: htapTopK}
	switch seq % 3 {
	case 0:
		q.Op = AnalyticsSum
	case 1:
		q.Op = AnalyticsMaxDelta
		if w.hyperledger {
			q.Op = AnalyticsMaxVersion
		}
		q.Account = w.accts[rng.Intn(len(w.accts))]
	case 2:
		q.Op = AnalyticsTopK
		q.Account = w.accts[rng.Intn(len(w.accts))]
	}
	res, err := client.Analytics(q)
	if err != nil {
		return // a crashed/partitioned server: the OLTP side keeps going
	}
	w.queries.Add(1)
	// Advance the window to the newest height this query covered.
	for {
		prev := w.lastHeight.Load()
		if res.Height <= prev || w.lastHeight.CompareAndSwap(prev, res.Height) {
			return
		}
	}
}
