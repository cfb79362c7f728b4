package blockbench

import (
	"fmt"
	"math/rand"
	"time"

	"blockbench/internal/types"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "analytics",
		Description: "OLAP micro benchmark: preloaded historical chain plus the Q1/Q2 scan queries",
		New: func(opts WorkloadOptions) (Workload, error) {
			d := NewWorkloadDecoder(opts)
			a := &Analytics{
				Blocks:     d.Int("blocks", 0),
				TxPerBlock: d.Int("txperblock", 0),
				Accounts:   d.Int("accounts", 0),
				Mode:       d.String("mode", ""),
			}
			switch a.Mode {
			case "", "rpc", "indexed":
			default:
				d.Reject("mode", "want rpc or indexed")
			}
			return a, d.Finish()
		},
	})
}

// Analytics is the OLAP micro benchmark (§3.4.2): the chain is preloaded
// with blocks of value-transfer transactions among a fixed account set,
// then two historical queries are measured:
//
//	Q1: total transaction value committed between block i and block j.
//	Q2: largest transaction value involving a given account in [i, j).
//
// On Ethereum and Parity both queries go through block/state RPCs (one
// round trip per block). Hyperledger has no historical-state API, so the
// preload runs through the VersionKVStore chaincode and Q2 becomes a
// single server-side chaincode query — the paper's 10x latency gap.
// Mode selects the read path (`-wopt mode=`): "rpc" (the default)
// walks blocks/balances one RPC at a time — the paper's baseline —
// while "indexed" sends each query to the server's columnar analytics
// index, which answers the whole range in one round trip. Both paths
// return identical results.
type Analytics struct {
	Blocks     int    // preloaded blocks (default 1000)
	TxPerBlock int    // default 3, as in the paper
	Accounts   int    // distinct accounts (default 64, bounded by clients)
	Mode       string // "rpc" (default) or "indexed"

	hyperledger bool
	accts       []Address
}

// Name identifies the workload in reports.
func (a *Analytics) Name() string { return "analytics" }

// Contracts lists required contracts (Hyperledger only).
func (a *Analytics) Contracts() []string { return []string{"versionkv"} }

func (a *Analytics) fill(c *Cluster) {
	if a.Blocks <= 0 {
		a.Blocks = 1000
	}
	if a.TxPerBlock <= 0 {
		a.TxPerBlock = 3
	}
	if a.Accounts <= 0 || a.Accounts > len(c.keys) {
		a.Accounts = len(c.keys)
	}
}

// Init preloads the historical chain.
func (a *Analytics) Init(c *Cluster, rng *rand.Rand) error {
	a.fill(c)
	a.hyperledger = c.Kind() == Hyperledger
	a.accts = make([]Address, a.Accounts)
	for i := range a.accts {
		a.accts[i] = c.keys[i].Address()
	}

	var ops []Op
	if a.hyperledger {
		for i := 0; i < a.Accounts; i++ {
			ops = append(ops, Op{Contract: "versionkv", Method: "prealloc",
				Args: [][]byte{a.accts[i].Bytes(), types.U64Bytes(1 << 40)}})
		}
	}
	for b := 0; b < a.Blocks; b++ {
		for t := 0; t < a.TxPerBlock; t++ {
			from := rng.Intn(a.Accounts)
			to := (from + 1 + rng.Intn(a.Accounts-1)) % a.Accounts
			val := uint64(1 + rng.Intn(1000))
			if a.hyperledger {
				ops = append(ops, Op{Contract: "versionkv", Method: "sendValue",
					Args: [][]byte{a.accts[from].Bytes(), a.accts[to].Bytes(), types.U64Bytes(val)}})
			} else {
				ops = append(ops, Op{To: a.accts[to], Value: val})
			}
		}
	}
	// Preload in blocks of TxPerBlock so block heights line up with the
	// paper's setup ("100,000 blocks, each contains 3 transactions on
	// average"). The prealloc prefix forms its own leading blocks.
	return c.preloadOps(ops, a.TxPerBlock)
}

// Account returns a preloaded account address (for Q2 targets).
func (a *Analytics) Account(i int) Address { return a.accts[i%len(a.accts)] }

// Q1 computes the total transaction value in blocks [from, to) and
// returns the result and the query latency. The rpc mode walks one
// Block RPC per block; the indexed mode issues one server-side sum
// query.
func (a *Analytics) Q1(client *Client, from, to uint64) (total uint64, elapsed time.Duration, err error) {
	start := time.Now()
	if a.Mode == "indexed" {
		res, err := client.Analytics(AnalyticsQuery{Op: AnalyticsSum, From: from, To: to})
		if err != nil {
			return 0, 0, fmt.Errorf("analytics q1: %w", err)
		}
		return res.Value, time.Since(start), nil
	}
	for n := from; n < to; n++ {
		b, err := client.Block(n)
		if err != nil {
			return 0, 0, fmt.Errorf("analytics q1: block %d: %w", n, err)
		}
		for _, tx := range b.Txs {
			if tx.Contract == "versionkv" && tx.Method == "sendValue" {
				total += types.U64(tx.Args[2])
			} else if tx.Contract == "" {
				total += tx.Value
			}
		}
	}
	return total, time.Since(start), nil
}

// Q2 computes the largest balance change of acct across blocks
// [from, to) and returns it with the query latency. On Ethereum/Parity
// it issues one getBalance RPC per block; on Hyperledger a single
// VersionKVStore chaincode query scans versions server-side.
func (a *Analytics) Q2(client *Client, acct Address, from, to uint64) (largest uint64, elapsed time.Duration, err error) {
	start := time.Now()
	if from >= to {
		return 0, time.Since(start), nil // empty range: nothing to scan
	}
	if a.Mode == "indexed" {
		op := AnalyticsMaxDelta
		if a.hyperledger {
			op = AnalyticsMaxVersion
		}
		res, err := client.Analytics(AnalyticsQuery{Op: op, Account: acct, From: from, To: to})
		if err != nil {
			return 0, 0, fmt.Errorf("analytics q2: %w", err)
		}
		return res.Value, time.Since(start), nil
	}
	if a.hyperledger {
		out, err := client.Query("versionkv", "accountBlockRange",
			acct.Bytes(), types.U64Bytes(from), types.U64Bytes(to))
		if err != nil {
			return 0, 0, fmt.Errorf("analytics q2: %w", err)
		}
		if len(out)%8 != 0 {
			// Versions are fixed 8-byte values: a ragged payload means a
			// corrupt response, not a short history — failing beats
			// silently dropping the tail bytes.
			return 0, 0, fmt.Errorf("analytics q2: malformed accountBlockRange response: %d bytes", len(out))
		}
		// Versions arrive newest first, 8 bytes each.
		var prev uint64
		for i := 0; i+8 <= len(out); i += 8 {
			v := types.U64(out[i : i+8])
			if i > 0 {
				largest = max(largest, absDiff(prev, v))
			}
			prev = v
		}
		return largest, time.Since(start), nil
	}
	var prev uint64
	for n := from; n < to; n++ {
		bal, err := client.BalanceAt(acct, n)
		if err != nil {
			return 0, 0, fmt.Errorf("analytics q2: block %d: %w", n, err)
		}
		if n > from {
			largest = max(largest, absDiff(prev, bal))
		}
		prev = bal
	}
	return largest, time.Since(start), nil
}

// Next implements Workload formally; Analytics is query-driven, so the
// driver loop is not used. It returns a no-op value transfer.
func (a *Analytics) Next(clientID int, rng *rand.Rand) Op {
	if len(a.accts) == 0 {
		// Init never ran (SkipInit): the account set only exists after
		// preload, so degrade to burning value transfers instead of
		// panicking inside the driver.
		return Op{Value: 1}
	}
	return Op{To: a.accts[rng.Intn(len(a.accts))], Value: 1}
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
