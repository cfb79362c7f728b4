// Package blockbench is a Go implementation of BLOCKBENCH (Dinh et al.,
// SIGMOD 2017), the evaluation framework for private blockchains, together
// with simulated implementations of the three platforms the paper studies —
// Ethereum (PoW), Parity (PoA) and Hyperledger Fabric v0.6 (PBFT) — plus
// two extensions built on the same platform connector (a preset in
// internal/platform's closed table): Quorum (Raft-ordered
// crash-fault-tolerant consensus) and Sharded (hash-partitioned state
// with one consensus group per shard and cross-shard two-phase commit —
// the database scaling technique the paper's conclusion calls for).
//
// The package mirrors the paper's Fig 4 software stack:
//
//   - Cluster boots an N-node deployment of one platform over a simulated
//     network (IBlockchainConnector's backend side); a run's Events
//     inject faults and attacks into it.
//   - Client is a connector bound to one client identity and one server:
//     asynchronous transaction submission plus the block-range polling
//     (getLatestBlock) that the paper's driver uses.
//   - Workload is IWorkloadConnector: it supplies the next transaction.
//     Workloads are the framework's one public registry
//     (RegisterWorkload / NewWorkload): YCSB, Smallbank, EtherId,
//     Doubler, WavesPresale, DoNothing, IOHeavy, CPUHeavy, Analytics
//     and the HTAP mix ship registered; framework users plug in their
//     own the same way. The platforms are a closed set of five.
//   - Run is the benchmark driver: multiple clients, multiple threads,
//     open- or closed-loop, collecting throughput, latency, queue and
//     commit time series, fork and resource statistics.
package blockbench

import (
	"fmt"
	"sync/atomic"

	"blockbench/internal/analytics"
	"blockbench/internal/crypto"
	"blockbench/internal/node"
	"blockbench/internal/platform"
	"blockbench/internal/types"
)

// Re-exported core types, so framework users never import internal
// packages.
type (
	// Hash is a 32-byte content digest (transaction and block IDs).
	Hash = types.Hash
	// Address is a 20-byte account identifier.
	Address = types.Address
	// Key is a client signing identity.
	Key = crypto.Key
	// Platform selects a backend: the paper's three systems or the
	// Quorum and Sharded extensions.
	Platform = platform.Kind
	// ClusterConfig sizes a platform deployment; the selected preset's
	// tuning knobs travel in its Options, keyed like the CLI's -popt
	// (DESIGN.md tabulates them).
	ClusterConfig = platform.Config
	// AnalyticsQuery is one server-side analytics request (operation,
	// height range, account) served from the node's columnar index.
	AnalyticsQuery = analytics.Query
	// AnalyticsResult is an analytics query's answer.
	AnalyticsResult = analytics.Result
)

// The analytics operations: the paper's Q1 (sum) and Q2 (maxdelta on
// the balance platforms, maxversion on Hyperledger's versioned store)
// plus the counterparty ranking.
const (
	AnalyticsSum        = analytics.OpSum
	AnalyticsMaxDelta   = analytics.OpMaxDelta
	AnalyticsMaxVersion = analytics.OpMaxVersion
	AnalyticsTopK       = analytics.OpTopK
)

// The platforms: the paper's three systems plus the Raft-ordered Quorum
// extension and the partitioned Sharded backend. The set is closed: a
// new backend is a preset file and a row of internal/platform's table,
// and then appears in Platforms.
const (
	Ethereum    = platform.Ethereum
	Parity      = platform.Parity
	Hyperledger = platform.Hyperledger
	Quorum      = platform.Quorum
	Sharded     = platform.Sharded
)

// Platforms lists every backend in sorted order.
func Platforms() []Platform { return platform.Kinds() }

// PlatformByName resolves a platform by its CLI name,
// erroring with the known kinds when the name is unknown.
func PlatformByName(name string) (Platform, error) {
	if _, err := platform.Lookup(platform.Kind(name)); err != nil {
		return "", err
	}
	return Platform(name), nil
}

// PlatformDescribe returns the one-line summary of a platform ("" if
// unknown).
func PlatformDescribe(kind Platform) string { return platform.Describe(kind) }

// NewKeys deterministically derives n client identities.
func NewKeys(n int) []*Key {
	keys := make([]*Key, n)
	for i := range keys {
		keys[i] = crypto.DeterministicKey(uint64(0xc0ffee) + uint64(i))
	}
	return keys
}

// Cluster is a running blockchain deployment plus the client identities
// registered with it.
type Cluster struct {
	inner   *platform.Cluster
	keys    []*Key
	nonces  []atomic.Uint64 // one sequence per client identity
	started bool
}

// NewCluster builds a cluster. If cfg.ClientKeys is empty, `clients`
// identities are derived and funded automatically.
func NewCluster(cfg ClusterConfig, clients int) (*Cluster, error) {
	if len(cfg.ClientKeys) == 0 {
		cfg.ClientKeys = NewKeys(clients)
	}
	if cfg.GenesisBalance == 0 {
		cfg.GenesisBalance = 1 << 40
	}
	inner, err := platform.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, keys: cfg.ClientKeys, nonces: make([]atomic.Uint64, len(cfg.ClientKeys))}, nil
}

// Start launches all nodes.
func (c *Cluster) Start() {
	if !c.started {
		c.inner.Start()
		c.started = true
	}
}

// Stop halts nodes and network, then releases storage.
func (c *Cluster) Stop() {
	c.inner.Stop()
	c.inner.Close()
}

// Kind returns the platform backend.
func (c *Cluster) Kind() Platform { return c.inner.Kind }

// Size returns the number of server nodes.
func (c *Cluster) Size() int { return c.inner.Size() }

// Keys returns the registered client identities.
func (c *Cluster) Keys() []*Key { return c.keys }

// Client returns a connector for client identity i, attached to server
// i mod N (the paper's experiments pair clients with servers this way).
func (c *Cluster) Client(i int) *Client {
	if i < 0 || i >= len(c.keys) {
		panic(fmt.Sprintf("blockbench: client %d of %d", i, len(c.keys)))
	}
	return c.ClientOn(i, i%c.inner.Size())
}

// ClientOn returns a connector for client identity i attached to a
// specific server.
func (c *Cluster) ClientOn(i, server int) *Client {
	cl := &Client{
		cluster:   c,
		key:       c.keys[i],
		signLocal: !c.inner.ServerSigns(),
		nonce:     &c.nonces[i],
	}
	cl.server.Store(int32(server))
	return cl
}

// Down reports whether node i is currently process-killed.
func (c *Cluster) Down(i int) bool { return c.inner.Down(i) }

// ShardOf returns the shard group whose canonical chain node i follows
// (0 on single-chain platforms).
func (c *Cluster) ShardOf(i int) int { return c.inner.ShardOf(i) }

// ForkStats reports (blocks on any branch, main-chain length): the
// security metric of §3.3.
func (c *Cluster) ForkStats() (total, mainChain uint64) { return c.inner.ForkStats() }

// Height returns node 0's confirmed chain height.
func (c *Cluster) Height() uint64 { return c.inner.Chain(0).Height() }

// NodeHeight returns node i's confirmed chain height.
func (c *Cluster) NodeHeight(i int) uint64 { return c.inner.NodeHeight(i) }

// Internal accessors used by the driver, analytics helpers, experiments
// and benchmarks within this module.

func (c *Cluster) nodeAt(i int) *node.Node { return c.inner.Node(i) }

// Inner exposes the underlying platform cluster for experiment code that
// needs platform-level counters (storage stats, execution engines), and
// for code that injects a fault outside a run (Inner().Crash(i)); inside
// a run, faults are RunConfig.Events.
func (c *Cluster) Inner() *platform.Cluster { return c.inner }
