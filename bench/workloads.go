package main

import (
	"math/rand"

	"blockbench"
	"blockbench/internal/crypto"
	"blockbench/internal/types"
)

// spec is one benchmark workload: a cluster shape, a contract workload
// and the two load shapes it is measured under. Names are permanent;
// rates are constants sized for a 2-core host at roughly 40% of the
// seed's peak (README.md gives the re-calibration rule) and are never
// scaled to the machine, so numbers stay comparable over time.
type spec struct {
	Name string
	Why  string

	Kind     blockbench.Platform
	LSM      bool              // state on the LSM engine under the run's data directory
	Options  map[string]string // platform options (-popt)
	Workload string            // registry name, or "" for the bench-local ioread workload
	WOpts    blockbench.WorkloadOptions

	Clients int
	Rate    float64 // paced phase: tx/s per client, open loop, one thread each
	// Peak phase: the macro workloads run open loop at Rate 0 (as fast as
	// the server accepts). The micro workloads must not: one transaction
	// is milliseconds of work on every node, an unpaced generator submits
	// fifty times what commits and teardown takes minutes. They run closed
	// loop instead, with PeakThreads submitters per client.
	PeakBlocking bool
	PeakThreads  int
}

const (
	nodes        = 4
	ioTuples     = 100    // tuples read per ioread transaction
	ioReadSet    = 20_000 // tuples preloaded for ioread: about 5x the 4096-entry caches
	ioLoadPerBlk = 10     // preload transactions per directly-appended block
)

var specs = []spec{
	{
		Name: "ycsb-quorum",
		Why:  "macro path: raft, simnet, txpool, crypto, evm, mpt and driver share the cost; no layer dominates",
		Kind: blockbench.Quorum, Workload: "ycsb",
		WOpts:   blockbench.WorkloadOptions{"records": "1000"},
		Clients: 8, Rate: 150, PeakThreads: 1,
	},
	{
		Name: "smallbank-hyperledger",
		Why:  "PBFT's O(n^2) messages make consensus, simnet and crypto nearly all the cost; native chaincode and bmt, so evm and mpt idle",
		Kind: blockbench.Hyperledger, Workload: "smallbank",
		WOpts:   blockbench.WorkloadOptions{"accounts": "1000"},
		Clients: 8, Rate: 60, PeakThreads: 1,
	},
	{
		Name: "smallbank-sharded",
		Why:  "only workload crossing internal/sharding: fast path plus 2PC for the cross-shard share; raft as 4 small groups",
		Kind: blockbench.Sharded, Options: map[string]string{"shards": "4"}, Workload: "smallbank",
		WOpts:   blockbench.WorkloadOptions{"accounts": "1000"},
		Clients: 8, Rate: 200, PeakThreads: 1,
	},
	{
		Name: "iowrite-quorum-lsm",
		Why:  "data-model write path: every tx inserts 10 fresh 20 B/100 B tuples; mpt insert/commit, state and LSM WAL/flush/compaction carry the cost",
		Kind: blockbench.Quorum, LSM: true, Workload: "ioheavy",
		WOpts: blockbench.WorkloadOptions{"tuples": "10", "write": "true"},
		// 80 tx/s keeps the node stores at three memtable flushes (one per
		// ~320 tx) through warm-up and a 10 s paced phase. The fourth flush
		// starts the first tiered compaction, a ~1.5 s stall that at
		// 128 tx/s fell in or out of the window from run to run and moved
		// p90 between 20 and 170 ms.
		Clients: 4, Rate: 20, PeakBlocking: true, PeakThreads: 2,
	},
	{
		Name: "ioread-quorum-lsm",
		Why:  "same layers read-only: 100 reads per tx over 20000 tuples, 5x the state caches: flat-cache misses, trie walks, LSM bloom/index/get",
		Kind: blockbench.Quorum, LSM: true,
		Clients: 4, Rate: 32, PeakBlocking: true, PeakThreads: 2,
	},
	{
		Name: "cpuheavy-quorum",
		Why:  "execution layer: each tx quicksorts 300 integers in the EVM on every node; consensus and state do little",
		Kind: blockbench.Quorum, Workload: "cpuheavy",
		WOpts:   blockbench.WorkloadOptions{"n": "300"},
		Clients: 4, Rate: 32, PeakBlocking: true, PeakThreads: 8,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// clusterConfig builds the platform configuration. Every injected delay
// is left at the product default, which the benchmark prints: simnet
// 200us + U[0,300us) at 1 Gb/s, RPC 200us, batch 20 tx / 10 ms (Raft) or
// 15 ms (PBFT). dataDir roots the LSM directories inside the checkout.
func (s spec) clusterConfig(contracts []string, dataDir string) blockbench.ClusterConfig {
	cfg := blockbench.ClusterConfig{Kind: s.Kind, Nodes: nodes, Contracts: contracts}
	if len(s.Options) > 0 {
		cfg.Options = make(map[string]string, len(s.Options))
		for k, v := range s.Options {
			cfg.Options[k] = v
		}
	}
	if s.LSM {
		cfg.StoreBackend = "lsm"
		cfg.DataDir = dataDir
	}
	return cfg
}

// newWorkload builds a fresh workload instance (workloads carry state,
// so every cluster gets its own).
func (s spec) newWorkload() (blockbench.Workload, error) {
	if s.Workload == "" {
		return &ioReadWorkload{}, nil
	}
	return blockbench.NewWorkload(s.Workload, s.WOpts)
}

// ioReadWorkload is the bench-local read half of IOHeavy: set-up writes
// ioReadSet tuples by direct append, then every transaction reads
// ioTuples consecutive tuples starting at a seeded random offset. The
// shipped ioheavy workload reads tuples nobody wrote; this one reads a
// populated set larger than the state caches.
type ioReadWorkload struct{}

func (w *ioReadWorkload) Name() string        { return "ioread" }
func (w *ioReadWorkload) Contracts() []string { return []string{"ioheavy"} }

func ioOp(method string, seed uint64) blockbench.Op {
	return blockbench.Op{Contract: "ioheavy", Method: method,
		Args:     [][]byte{types.U64Bytes(ioTuples), types.U64Bytes(seed)},
		GasLimit: 1 << 40}
}

// Init implements blockbench.Workload. It must run before Cluster.Start:
// blocks are appended to every node directly, bypassing consensus.
func (w *ioReadWorkload) Init(c *blockbench.Cluster, _ *rand.Rand) error {
	keys := c.Keys()
	var batches [][]*types.Transaction
	var batch []*types.Transaction
	for i := 0; i < ioReadSet/ioTuples; i++ {
		op := ioOp("write", uint64(i*ioTuples))
		key := keys[i%len(keys)]
		tx := &types.Transaction{
			// High nonce range keeps preload hashes disjoint from driver
			// traffic, as the product's own preload does.
			Nonce:    uint64(1)<<40 + uint64(i),
			From:     key.Address(),
			Contract: op.Contract, Method: op.Method, Args: op.Args,
			GasLimit: op.GasLimit,
		}
		if err := crypto.SignTx(tx, key); err != nil {
			return err
		}
		if batch = append(batch, tx); len(batch) == ioLoadPerBlk {
			batches, batch = append(batches, batch), nil
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return c.Inner().Preload(batches)
}

// Next implements blockbench.Workload.
func (w *ioReadWorkload) Next(_ int, rng *rand.Rand) blockbench.Op {
	return ioOp("read", uint64(rng.Intn(ioReadSet-ioTuples+1)))
}

// ioExpected is the value the ioheavy contract stores for tuple k when
// written by Init: the tuple's index within its transaction,
// little-endian, padded to 100 bytes.
func ioExpected(k uint64) []byte {
	val := make([]byte, 100)
	j := k % ioTuples
	for i := 0; i < 8; i++ {
		val[i] = byte(j >> (8 * i))
	}
	return val
}

// ioKey mirrors the contract's key derivation (20-byte keys).
func ioKey(k uint64) []byte {
	key := make([]byte, 20)
	put := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			key[off+i] = byte(v >> (8 * i))
		}
	}
	put(0, k)
	put(8, k*2654435761)
	put(12, k*2654435761)
	return key
}
