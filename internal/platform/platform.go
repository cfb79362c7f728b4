// Package platform wires the substrate packages into blockchain
// platform presets and runs N-node clusters of them over the simulated
// network. The presets are a closed table (presets, below): each preset
// file declares its state store, state organization, execution engine,
// per-element memory cost model and consensus factory, and the driver,
// experiments and CLI list them through Kinds. Adding a platform is one
// preset file and one row of that table. Configuration is split the
// same way: Config (this file) holds only what every preset reads; a
// preset's tuning knobs live in its own file, as a private struct
// decoded from Config.Options by its Build hook. DESIGN.md tabulates
// every key.
//
// Five presets make up the table: the three systems the paper
// evaluates — Ethereum (geth v1.4.18: PoW, Patricia-Merkle trie over
// LevelDB with an LRU state cache, EVM), Parity (v1.6.0:
// Proof-of-Authority, all state pinned in memory, EVM, server-side
// transaction signing) and Hyperledger Fabric (v0.6.0-preview: PBFT,
// Bucket-Merkle tree over RocksDB, native chaincode) — plus two
// extension backends on the same Preset seam: Quorum (geth fork:
// Raft-ordered crash-fault-tolerant consensus, trie state, EVM) and
// Sharded (hash-partitioned state, one Raft group per shard,
// cross-shard two-phase commit).
package platform

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"blockbench/internal/analytics"
	"blockbench/internal/crypto"
	"blockbench/internal/exec"
	"blockbench/internal/exec/parallel"
	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/metrics"
	"blockbench/internal/node"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
	"blockbench/internal/workload"
)

// Kind selects a platform preset by name.
type Kind string

// presets is the closed set of platforms, sorted by Kind: the paper's
// three systems and the two extension backends.
var presets = [...]*Preset{
	ethereumPreset(),
	hyperledgerPreset(),
	parityPreset(),
	quorumPreset(),
	shardedPreset(),
}

// Config sizes a cluster and carries the settings every preset reads.
// Preset-specific tuning (block interval, batch size, Raft timers, shard
// count, ...) is not here: it travels in Options and is decoded, with
// its defaults, by the selected preset's file — see DESIGN.md for the
// table of keys. All time defaults are at the repository's 25x scale
// relative to the paper's testbed (DESIGN.md).
type Config struct {
	Kind      Kind
	Nodes     int
	Contracts []string
	// ClientKeys are the client accounts: registered for signature
	// verification, funded at genesis, and (on Parity) installed in the
	// server keyring.
	ClientKeys     []*crypto.Key
	GenesisBalance uint64
	Net            simnet.Config
	// DataDir switches state storage from in-memory maps to the LSM
	// engine, one directory per node (IOHeavy disk-usage runs).
	DataDir string
	// StoreBackend selects the storage engine explicitly: "mem" (the
	// default) or "lsm". Exposed as -popt store= on the presets that
	// share the default storage policy; -popt storedir=DIR sets DataDir
	// and implies lsm. An LSM run without a DataDir gets an ephemeral
	// temp directory, removed at Cluster.Close.
	StoreBackend string
	// ephemeralData marks DataDir as a temp directory provisioned by
	// decodeStore; Cluster.Close removes it.
	ephemeralData bool
	// RPCLatency models the client↔server round trip (default 200µs).
	RPCLatency time.Duration
	// Options carries the selected preset's knobs as key=val strings —
	// the CLI's -popt, and the only way in for Go callers too, so a knob
	// aimed at the wrong preset fails as loudly from code as from the
	// command line. New rejects keys the preset's Build did not read.
	Options map[string]string
}

// fill applies the platform-independent defaults; preset-specific knobs
// are defaulted by each preset's Build hook.
func (c *Config) fill() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("platform: cluster needs at least 1 node")
	}
	if c.Net.InboxSize == 0 {
		c.Net = simnet.DefaultConfig()
	}
	if c.RPCLatency == 0 {
		c.RPCLatency = 200 * time.Microsecond
	}
	if len(c.Contracts) == 0 {
		c.Contracts = []string{"ycsb", "smallbank", "donothing"}
	}
	return nil
}

// Cluster is a running N-node deployment of one platform. Crash and
// Recover rebuild nodes in place, so every slice is indexed by node
// and guarded by mu; accessors hand out the current incarnation.
type Cluster struct {
	Kind   Kind
	Net    *simnet.Network
	preset *Preset
	// asm is the preset resolved against cfg, built once in New.
	asm *Assembly

	mu       sync.RWMutex
	nodes    []*node.Node
	chains   []*ledger.Chain
	stores   []kvstore.Store
	engines  []exec.Engine
	nodeKeys []*crypto.Key
	// providers holds each node's counter sources (consensus and
	// execution engines, intra-block executors, state layers, stores,
	// registries, indexers), dropped and re-collected on rebuild.
	providers [][]metrics.CounterProvider
	// down marks process-killed nodes; restarts counts recoveries, so
	// the invariant checker can distinguish a restart-induced height
	// regression from a real safety violation.
	down     []bool
	restarts []uint64
	// retired accumulates the counters of dead node incarnations so
	// Counters() stays monotone across kills (gauge keys excluded).
	retired map[string]uint64

	// env/alloc/peers are retained so Recover can rebuild a node with
	// the identical identity material the initial build used.
	env   *Env
	alloc map[types.Address]uint64
	peers []simnet.NodeID

	// tracer is the cluster-wide lifecycle tracer every component stamps
	// into; disabled until the driver arms it for a run.
	tracer *trace.Tracer
	cfg    Config
}

// Tracer returns the cluster's lifecycle tracer.
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// New builds (but does not start) a cluster of the platform named by
// cfg.Kind.
func New(cfg Config) (*Cluster, error) {
	p, err := Lookup(cfg.Kind)
	if err != nil {
		return nil, err
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	c := &Cluster{Kind: cfg.Kind, preset: p, cfg: cfg, tracer: trace.New()}
	// Resolve the preset's knobs once, against the cluster's own copy of
	// the config (Build's closures keep pointing at it).
	d := workload.NewDecoder(cfg.Options)
	c.asm, err = p.Build(&c.cfg, d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		c.Close() // removes a temp data dir decodeStore may have provisioned
		return nil, fmt.Errorf("platform: %s: %w", cfg.Kind, err)
	}
	c.Net = simnet.New(cfg.Net)

	peers := make([]simnet.NodeID, cfg.Nodes)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	// Node identities are deterministic so repeated runs are comparable.
	env := &Env{
		Authorities: make([]types.Address, cfg.Nodes),
		Keyring:     make(map[types.Address]*crypto.Key, len(cfg.ClientKeys)),
	}
	c.nodeKeys = make([]*crypto.Key, cfg.Nodes)
	for i := range c.nodeKeys {
		c.nodeKeys[i] = crypto.DeterministicKey(uint64(1000 + i))
		env.Authorities[i] = c.nodeKeys[i].Address()
	}

	alloc := make(map[types.Address]uint64, len(cfg.ClientKeys))
	for _, k := range cfg.ClientKeys {
		alloc[k.Address()] = cfg.GenesisBalance
		env.Keyring[k.Address()] = k
	}
	// Every participant is authenticated in a permissioned deployment.
	env.Keys = append(env.Keys, cfg.ClientKeys...)
	env.Keys = append(env.Keys, c.nodeKeys...)

	c.env = env
	c.alloc = alloc
	c.peers = peers
	c.nodes = make([]*node.Node, cfg.Nodes)
	c.chains = make([]*ledger.Chain, cfg.Nodes)
	c.stores = make([]kvstore.Store, cfg.Nodes)
	c.engines = make([]exec.Engine, cfg.Nodes)
	c.providers = make([][]metrics.CounterProvider, cfg.Nodes)
	c.down = make([]bool, cfg.Nodes)
	c.restarts = make([]uint64, cfg.Nodes)
	c.retired = make(map[string]uint64)

	for i := 0; i < cfg.Nodes; i++ {
		if err := c.buildNode(i, nil); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// appendBlockKey appends the store key journaling the committed block
// at height n, fmt's "blk:%016d" (zero-padded so store iteration yields
// ascending heights), to dst.
func appendBlockKey(dst []byte, n uint64) []byte {
	dst = append(dst, "blk:"...)
	for w := uint64(1e15); w > n && w > 1; w /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, n, 10)
}

// storeMeta adapts a node's kvstore into the consensus.MetaStore the
// engines persist their hard state through (Raft term/vote/applied).
// key is SaveMeta's scratch: the store copies the key it is handed.
type storeMeta struct {
	s   kvstore.Store
	key []byte
}

func (m *storeMeta) SaveMeta(key string, value []byte) {
	m.key = append(append(m.key[:0], "meta:"...), key...)
	m.s.Put(m.key, value)
}

func (m *storeMeta) LoadMeta(key string) ([]byte, bool) {
	v, ok, err := m.s.Get([]byte("meta:" + key))
	if err != nil || !ok {
		return nil, false
	}
	return v, true
}

// buildNode assembles node i from the preset's hooks, writing slot i of
// every per-node slice. A nil store opens a fresh one through the
// preset; Recover passes the reopened (or surviving) store so a
// DurableRecovery preset replays its journaled chain from disk.
func (c *Cluster) buildNode(i int, store kvstore.Store) error {
	cfg := &c.cfg
	p, a := c.preset, c.asm

	if store == nil {
		s, err := c.openStoreFor(i)
		if err != nil {
			return err
		}
		store = s
	}
	c.stores[i] = store

	eng, err := a.NewEngine()
	if err != nil {
		return err
	}
	c.engines[i] = eng

	var provs []metrics.CounterProvider
	factory, stateProviders, err := a.NewStateFactory(store)
	if err != nil {
		return err
	}
	provs = append(provs, stateProviders...)
	// Stores that count their own traffic (the LSM engine's gets, bloom
	// skips, flushes, compactions) flow into Report.Counters too.
	if cp, ok := store.(metrics.CounterProvider); ok {
		provs = append(provs, cp)
	}

	// Per-node registry: verification results are cached per transaction,
	// so sharing one registry would let N-1 nodes skip the signature
	// check the simulation charges each node for (its pool pays it).
	reg := c.env.newRegistry()
	provs = append(provs, reg)

	pool := txpool.New(1 << 20)
	pool.SetTracer(c.tracer)
	pool.SetVerifier(reg)
	var blockExec ledger.BlockExecutor
	if a.Workers > 0 {
		pex := parallel.New(a.Workers)
		blockExec = pex
		provs = append(provs, pex)
	}
	// Analytics indexer: maintained on the commit path unless disabled.
	var idx *analytics.Indexer
	if a.Index {
		idx = analytics.NewIndexer(nil, analytics.Options{})
		provs = append(provs, idx)
	}

	lcfg := ledger.Config{
		Engine:        eng,
		Parallel:      blockExec,
		StateFactory:  factory,
		Registry:      reg,
		SupportsForks: p.SupportsForks,
		GenesisAlloc:  c.alloc,
		OnInclude:     pool.MarkIncluded,
		OnReorg:       pool.Reinject,
		Tracer:        c.tracer,
	}
	if idx != nil {
		lcfg.OnCommit = idx.OnCommit
	}
	if p.DurableRecovery {
		// Journal committed blocks so a killed node can rebuild its
		// chain from disk alone. Composed before the indexer hook; runs
		// under the chain lock, so it only touches the store, which
		// copies the key and record this node's scratch holds.
		inner := lcfg.OnCommit
		var key, enc []byte
		lcfg.OnCommit = func(blocks []*types.Block, receipts [][]*types.Receipt) {
			for _, b := range blocks {
				key, enc = appendBlockKey(key[:0], b.Number()), types.AppendBlock(enc[:0], b)
				store.Put(key, enc)
			}
			if inner != nil {
				inner(blocks, receipts)
			}
		}
	}
	chain, err := ledger.New(lcfg)
	if err != nil {
		return err
	}
	c.chains[i] = chain

	if p.DurableRecovery {
		if err := replayJournal(store, chain); err != nil {
			return err
		}
	}

	ncfg := node.Config{
		ID:                simnet.NodeID(i),
		Key:               c.nodeKeys[i],
		Net:               c.Net,
		Chain:             chain,
		Pool:              pool,
		NewConsensus:      a.NewConsensus(c.env),
		Peers:             c.peers,
		RPCLatency:        cfg.RPCLatency,
		ConfirmationDepth: p.ConfirmationDepth,
		Analytics:         idx,
		Tracer:            c.tracer,
	}
	if p.DurableRecovery {
		ncfg.Meta = &storeMeta{s: store}
	}
	if p.ServerSigns {
		ncfg.ServerSigns = true
		ncfg.IngestCost = a.IngestCost
		ncfg.Keyring = c.env.Keyring
	}
	c.nodes[i] = node.New(ncfg)
	for _, v := range []any{c.nodes[i].Consensus(), eng} {
		if cp, ok := v.(metrics.CounterProvider); ok {
			provs = append(provs, cp)
		}
	}
	c.providers[i] = provs
	return nil
}

// replayJournal rebuilds chain from the blocks its store journaled (none
// on a fresh store), failing at the first block whose header does not
// match its execution. Only the last record, a crash's torn tail, may
// fail to decode: replay ends before it.
func replayJournal(store kvstore.Store, chain *ledger.Chain) error {
	var (
		blocks []*types.Block
		torn   string // the key of a record that does not decode
		next   bool   // a record follows it
	)
	err := store.Iterate([]byte("blk:"), []byte("blk;"), func(k, v []byte) bool {
		if next = torn != ""; next {
			return false
		}
		if b, err := types.DecodeBlock(v); err != nil {
			torn = string(k)
		} else {
			blocks = append(blocks, b)
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("platform: reading the block journal: %w", err)
	}
	if next {
		n, _ := strconv.ParseUint(torn[len("blk:"):], 10, 64) // appendBlockKey's digits
		return fmt.Errorf("platform: journaled block %d does not decode, and blocks follow it", n)
	}
	for _, b := range blocks {
		if err := chain.Append(b); err != nil {
			return fmt.Errorf("platform: replaying journaled block %d: %w", b.Number(), err)
		}
	}
	return nil
}

// openStoreFor opens node i's storage engine through the preset hook.
// The path is deterministic in i, so reopening after a crash recovers
// whatever the previous incarnation persisted.
func (c *Cluster) openStoreFor(i int) (kvstore.Store, error) {
	if c.asm.OpenStore != nil {
		return c.asm.OpenStore(i)
	}
	return defaultOpenStore(&c.cfg, i)
}

// ServerSigns reports whether this platform signs transactions inside
// the server (Parity); clients then submit unsigned transactions.
func (c *Cluster) ServerSigns() bool { return c.preset.ServerSigns }

// Start launches every node.
func (c *Cluster) Start() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.nodes {
		n.Start()
	}
}

// Stop halts nodes and the network.
func (c *Cluster) Stop() {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i, n := range c.nodes {
		if !c.down[i] {
			n.Stop()
		}
	}
	c.Net.Close()
}

// Close releases storage (after Stop) and removes any ephemeral data
// directory provisioned for a -popt store=lsm run.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.stores {
		if s != nil {
			s.Close()
		}
	}
	if c.cfg.ephemeralData && c.cfg.DataDir != "" {
		os.RemoveAll(c.cfg.DataDir)
	}
}

// Size returns the number of nodes.
func (c *Cluster) Size() int { return len(c.nodes) }

// Node returns the i-th node (its current incarnation).
func (c *Cluster) Node(i int) *node.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[i]
}

// Chain returns the i-th node's ledger.
func (c *Cluster) Chain(i int) *ledger.Chain {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.chains[i]
}

// Engine returns the i-th node's execution engine.
func (c *Cluster) Engine(i int) exec.Engine {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.engines[i]
}

// Store returns the i-th node's storage engine.
func (c *Cluster) Store(i int) kvstore.Store {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.stores[i]
}

// Crash process-kills node i: its network presence, consensus engine,
// transaction pool, uncommitted ledger tail and state caches are torn
// down, and its store is crash-closed without flushing (a genuinely
// torn WAL tail on the LSM engine). Only what the store already held
// survives for Recover. Counters of the dead incarnation are folded
// into the retired accumulator so cluster totals stay monotone.
func (c *Cluster) Crash(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[i] {
		return
	}
	c.down[i] = true
	c.retireCountersLocked(i)
	c.Net.Crash(simnet.NodeID(i))
	c.nodes[i].Stop()
	if cc, ok := c.stores[i].(kvstore.CrashCloser); ok {
		cc.CrashClose()
	}
}

// Recover restarts a killed node from its persisted store.
// DurableRecovery presets reopen the store (WAL replay truncates any
// torn tail), rebuild the chain from the journaled blocks and hand the
// consensus engine its persisted hard state; other presets restart
// from genesis and rejoin through the chain-sync protocol. On a node
// that is not down it is a no-op.
func (c *Cluster) Recover(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.down[i] {
		return
	}
	var store kvstore.Store
	if c.preset.DurableRecovery {
		if _, crashClosed := c.stores[i].(kvstore.CrashCloser); crashClosed {
			s, err := c.openStoreFor(i)
			if err != nil {
				return // leave the node down; nothing sane to rebuild on
			}
			store = s
		} else {
			// The in-memory store was never torn down: it stands in for
			// the surviving disk.
			store = c.stores[i]
		}
	} else {
		// Non-durable preset: the process's disk is not a chain journal,
		// so the node restarts empty (fresh directory for LSM runs).
		if c.cfg.DataDir != "" && c.cfg.StoreBackend != "mem" {
			os.RemoveAll(filepath.Join(c.cfg.DataDir, fmt.Sprintf("node-%d", i)))
		} else {
			c.stores[i].Close()
		}
		s, err := c.openStoreFor(i)
		if err != nil {
			return
		}
		store = s
	}
	if err := c.buildNode(i, store); err != nil {
		return
	}
	c.Net.Recover(simnet.NodeID(i))
	c.nodes[i].Start()
	c.down[i] = false
	c.restarts[i]++
}

// Down reports whether node i is currently process-killed.
func (c *Cluster) Down(i int) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.down[i]
}

// Restarts counts how many times node i has been rebuilt by Recover.
// The invariant checker uses it to tell a restart-induced height reset
// from a real monotonicity violation.
func (c *Cluster) Restarts(i int) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.restarts[i]
}

// BlockHash returns the hash of node i's canonical block at the given
// height (ok=false when the node has no block there). The invariant
// checker compares these across nodes for committed-prefix agreement.
func (c *Cluster) BlockHash(i int, height uint64) (types.Hash, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	b, ok := c.chains[i].GetBlock(height)
	if !ok {
		return types.Hash{}, false
	}
	return b.Hash(), true
}

// ConfirmationDepth returns the effective confirmation depth nodes were
// built with.
func (c *Cluster) ConfirmationDepth() uint64 { return c.preset.ConfirmationDepth }

// SupportsForks reports whether the platform's ledger admits competing
// branches (PoW/PoA) — agreement checks then apply only to blocks
// buried beyond a reorg margin.
func (c *Cluster) SupportsForks() bool { return c.preset.SupportsForks }

// ShardOf returns the shard group node i's canonical chain belongs to
// (0 on single-chain platforms) — agreement is only expected within a
// group.
func (c *Cluster) ShardOf(i int) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if p, ok := c.nodes[i].Consensus().(chainPartitioned); ok {
		return p.Shard()
	}
	return 0
}

// ApplyMismatch locates the first committed log entry node i's Raft
// replica could not account for on its chain (invariant.ApplyView;
// ok=false when there is none, the node is down, or its engine keeps no
// replicated log).
func (c *Cluster) ApplyMismatch(i int) (index, height uint64, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, logged := c.nodes[i].Consensus().(interface {
		ApplyMismatch() (index, height uint64, ok bool)
	})
	if !logged || c.down[i] {
		return 0, 0, false
	}
	return p.ApplyMismatch()
}

// retireCountersLocked folds the dying incarnation's counters into the
// retired accumulator. Gauge keys (".workers") restate configuration
// rather than progress, so they are dropped instead of summed — the
// next incarnation reports them afresh.
func (c *Cluster) retireCountersLocked(i int) {
	for _, p := range c.providers[i] {
		for k, n := range p.Counters() {
			if !metrics.GaugeKey(k) {
				c.retired[k] += n
			}
		}
	}
}

// nodeIDs converts node indexes to network ids.
func nodeIDs(nodes []int) []simnet.NodeID {
	ids := make([]simnet.NodeID, len(nodes))
	for i, n := range nodes {
		ids[i] = simnet.NodeID(n)
	}
	return ids
}

// PartitionGroups splits the cluster into arbitrary (possibly
// asymmetric) groups; nodes not listed anywhere share an implicit
// group with each other. Messages flow only within a group. One listed
// group of [0, k) is the double-spending attack simulation from §3.3.
func (c *Cluster) PartitionGroups(groups [][]int) {
	g := make([][]simnet.NodeID, len(groups))
	for i, grp := range groups {
		g[i] = nodeIDs(grp)
	}
	c.Net.PartitionGroups(g)
}

// Heal removes partitions.
func (c *Cluster) Heal() { c.Net.Heal() }

// SetLinkFaults installs a probabilistic link-fault profile on messages
// sent by the given nodes (all nodes when none are named): drop, dup
// and reorder are per-message probabilities. A zero profile clears.
func (c *Cluster) SetLinkFaults(drop, dup, reorder float64, nodes ...int) {
	c.Net.SetLinkFaults(simnet.LinkFaults{Drop: drop, Dup: dup, Reorder: reorder}, nodeIDs(nodes)...)
}

// SetDelay injects extra message delay at the given nodes.
func (c *Cluster) SetDelay(d time.Duration, nodes ...int) { c.Net.SetDelay(d, nodeIDs(nodes)...) }

// SetCorruptRate makes a fraction of the given nodes' messages arrive
// corrupted (the random-response failure mode of §3.3); zero clears.
func (c *Cluster) SetCorruptRate(rate float64, nodes ...int) {
	c.Net.SetCorruptRate(rate, nodeIDs(nodes)...)
}

// NodeHeight returns node i's confirmed chain height (the invariant
// checker samples it every bucket).
func (c *Cluster) NodeHeight(i int) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.chains[i].Height()
}

// Counters aggregates every counter the cluster's nodes expose: each
// node's providers (buildNode collects every component that implements
// metrics.CounterProvider, consensus and execution engines included)
// are asked for their maps and same-named counters are summed across
// nodes; the network adds its fault-injection counts once. There is no
// per-backend case here, so every preset's counters flow into
// Report.Counters without one.
func (c *Cluster) Counters() map[string]uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]uint64)
	for i, provs := range c.providers {
		if c.down[i] {
			continue // captured in retired at kill time
		}
		for _, p := range provs {
			for k, n := range p.Counters() {
				out[k] += n
			}
		}
	}
	for k, n := range c.retired {
		out[k] += n
	}
	st := c.Net.Stats()
	out["simnet.corrupted"] = st.Corrupted
	out["simnet.delayed"] = st.Delayed
	return out
}

// chainPartitioned is implemented by consensus engines that keep one
// canonical chain per shard group (the sharded platform) rather than
// one for the whole cluster.
type chainPartitioned interface{ Shard() int }

// ForkStats reports the security metric of §3.3: the number of blocks
// generated on any branch (unioned across nodes) versus the length of
// the agreed canonical structure. On single-chain platforms that is the
// longest chain; on a partitioned platform each shard group contributes
// its own canonical chain, so the lengths sum — disjoint shard chains
// are not forks of each other.
func (c *Cluster) ForkStats() (total, mainChain uint64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := make(map[types.Hash]struct{})
	longest := make(map[int]uint64)
	for i, ch := range c.chains {
		for _, h := range ch.KnownHashes() {
			seen[h] = struct{}{}
		}
		shard := 0
		if p, ok := c.nodes[i].Consensus().(chainPartitioned); ok {
			shard = p.Shard()
		}
		if ht := ch.Height(); ht > longest[shard] {
			longest[shard] = ht
		}
	}
	for _, ht := range longest {
		mainChain += ht
	}
	return uint64(len(seen)), mainChain
}

// Preload force-appends blocks built from the given transaction batches
// to every node, bypassing consensus — used to seed the analytics
// workload's historical chain quickly ("we pre-loaded them with 100,000
// blocks"). Transactions must already be signed. Each chain builds and
// appends a block per batch on its own goroutine, as separate servers
// would load their own stores; equal states make equal blocks. The
// result joins each chain's first error.
func (c *Cluster) Preload(batches [][]*types.Transaction) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	errs := make([]error, len(c.chains))
	var wg sync.WaitGroup
	for i, ch := range c.chains {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, txs := range batches {
				var b *types.Block
				if b, errs[i] = ch.Build(txs, ledger.Meta{Difficulty: 1, Time: int64(ch.Height() + 1)}); errs[i] != nil {
					return
				}
				if errs[i] = ch.Append(b); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
