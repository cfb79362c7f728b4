// Package node assembles a full validating blockchain node: network
// endpoint, transaction pool, ledger, execution engine and consensus
// engine, plus the RPC surface that BLOCKBENCH clients drive
// (send-transaction, block-range polling, state and historical queries).
package node

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/analytics"
	"blockbench/internal/consensus"
	"blockbench/internal/crypto"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// Config assembles one node.
type Config struct {
	ID    simnet.NodeID
	Key   *crypto.Key
	Net   *simnet.Network
	Chain *ledger.Chain
	Pool  *txpool.Pool
	// NewConsensus builds the consensus engine once the endpoint exists.
	NewConsensus func(consensus.Context) consensus.Engine
	Peers        []simnet.NodeID

	// RPCLatency models the client↔server network round trip added to
	// every RPC (the analytics experiments are dominated by it).
	RPCLatency time.Duration
	// ConfirmationDepth hides the newest blocks from BlocksFrom until
	// they are buried this deep (the paper's confirmationLength for
	// Ethereum and Parity; Hyperledger confirms immediately, depth 0).
	ConfirmationDepth uint64

	// Analytics is the node's columnar ledger index; AnalyticsQuery
	// serves from it. Nil when the index is disabled.
	Analytics *analytics.Indexer

	// ServerSigns moves transaction signing into the server's serial
	// ingestion path (Parity signs on behalf of unlocked accounts, so
	// the server holds the account keys). IngestCost is the additional
	// per-transaction processing time of that path — together they are
	// the bottleneck the paper identified ("the bottleneck in Parity is
	// caused by transaction signing").
	ServerSigns bool
	IngestCost  time.Duration
	// Keyring holds the account keys a ServerSigns node signs with.
	Keyring map[types.Address]*crypto.Key

	// Tracer is the cluster's lifecycle tracer (nil-safe), handed to the
	// consensus engine through its Context.
	Tracer *trace.Tracer

	// Meta is durable hard-state storage for the consensus engine's crash
	// recovery, handed through the Context (may be nil).
	Meta consensus.MetaStore
}

// Router intercepts the client-facing transaction path. A consensus
// engine that also implements Router (the sharded platform's engine)
// takes over ingress: SendTransaction hands submissions to SubmitTx
// instead of the local pool, and commits that happen on chains other
// than this node's — a routed transaction executing on a foreign shard
// — are surfaced back to this node's pollers through DrainRemoteCommits
// (folded into BlocksFrom) and CommittedElsewhere (folded into Receipt).
type Router interface {
	// SubmitTx routes one client transaction; an error means "busy,
	// retry" exactly like ErrBusy on the ingestion queue.
	SubmitTx(tx *types.Transaction) error
	// DrainRemoteCommits returns transaction IDs committed on foreign
	// chains since the last call (each ID is delivered once).
	DrainRemoteCommits() []types.Hash
	// CommittedElsewhere reports whether id is known committed on a
	// foreign chain.
	CommittedElsewhere(id types.Hash) bool
}

// LeaseReader is implemented by consensus engines that classify client
// reads under a leader lease (the Raft engine, and the sharded engine
// via its shard group's replica). LeaseRead reports whether this
// replica can serve a linearizable read locally right now — it is the
// leader and has heard from a majority within its lease window. When it
// cannot, the node models the redirect hop a real deployment would pay
// to reach the leader as one extra RPC round trip; the engine surfaces
// the split as raft.lease_reads vs raft.read_redirects counters.
type LeaseReader interface {
	LeaseRead() bool
}

// ErrStopped is returned by RPCs on a stopped node.
var ErrStopped = errors.New("node: stopped")

// ErrBusy is returned when the server-side ingestion queue is full.
var ErrBusy = errors.New("node: ingestion queue full")

// ingestQueue is the capacity of a ServerSigns node's ingestion queue.
const ingestQueue = 512

// ErrRejected is returned when the node's pool refuses a transaction it
// has not seen: its signature does not verify, or the pool is full.
var ErrRejected = errors.New("node: transaction rejected")

// Node is a running blockchain server.
type Node struct {
	cfg    Config
	ep     *simnet.Endpoint
	cons   consensus.Engine
	router Router      // non-nil when the consensus engine routes ingress
	lease  LeaseReader // non-nil when the consensus engine leases reads

	ingest  chan *types.Transaction
	stop    chan struct{}
	done    sync.WaitGroup
	started atomic.Bool
	stopped atomic.Bool
}

// New wires a node together (does not start goroutines).
func New(cfg Config) *Node {
	ep := cfg.Net.Join(cfg.ID)
	n := &Node{
		cfg:  cfg,
		ep:   ep,
		stop: make(chan struct{}),
	}
	ctx := consensus.Context{
		Self:     cfg.ID,
		Endpoint: ep,
		Chain:    cfg.Chain,
		Pool:     cfg.Pool,
		Address:  cfg.Key.Address(),
		Peers:    cfg.Peers,
		Tracer:   cfg.Tracer,
		Meta:     cfg.Meta,
	}
	n.cons = cfg.NewConsensus(ctx)
	if r, ok := n.cons.(Router); ok {
		n.router = r
	}
	if lr, ok := n.cons.(LeaseReader); ok {
		n.lease = lr
	}
	if cfg.ServerSigns {
		n.ingest = make(chan *types.Transaction, ingestQueue)
	}
	return n
}

// Start launches the node's goroutines.
func (n *Node) Start() {
	if !n.started.CompareAndSwap(false, true) {
		return
	}
	n.done.Add(1)
	go n.inboxLoop()
	if n.ingest != nil {
		n.done.Add(1)
		go n.ingestLoop()
	}
	n.cons.Start()
}

// Stop halts the node.
func (n *Node) Stop() {
	if !n.stopped.CompareAndSwap(false, true) {
		return
	}
	n.cons.Stop()
	close(n.stop)
	n.done.Wait()
}

// Pool exposes the node's pending pool.
func (n *Node) Pool() *txpool.Pool { return n.cfg.Pool }

// Consensus exposes the consensus engine for protocol-level metrics.
func (n *Node) Consensus() consensus.Engine { return n.cons }

// inboxLoop is the node's single message-processing thread. One thread
// per node matches the paper's observation that servers saturate on
// message processing under load.
func (n *Node) inboxLoop() {
	defer n.done.Done()
	for {
		select {
		case <-n.stop:
			return
		case msg := <-n.ep.Inbox:
			n.dispatch(msg)
		}
	}
}

func (n *Node) dispatch(msg simnet.Message) {
	if msg.Type == consensus.MsgTx {
		if tx, ok := msg.Payload.(*types.Transaction); ok && !msg.Corrupt {
			n.cfg.Pool.Add(tx)
		}
		return
	}
	n.cons.Handle(msg)
}

// ingestLoop serializes server-side transaction processing (Parity).
func (n *Node) ingestLoop() {
	defer n.done.Done()
	for {
		select {
		case <-n.stop:
			return
		case tx := <-n.ingest:
			// Signing plus queue management on a single thread: the
			// constant per-transaction cost that caps Parity throughput.
			key := n.cfg.Keyring[tx.From]
			if key == nil {
				continue // unknown account: cannot sign
			}
			if err := crypto.SignTx(tx, key); err != nil {
				continue
			}
			time.Sleep(n.cfg.IngestCost)
			n.admit(tx)
		}
	}
}

// admit pools and gossips tx; false means the pool refused it unseen.
func (n *Node) admit(tx *types.Transaction) bool {
	if n.cfg.Pool.Add(tx) {
		n.ep.Broadcast(consensus.MsgTx, tx)
		return true
	}
	return n.cfg.Pool.Known(tx.Hash())
}

func (n *Node) rpc() error {
	if n.stopped.Load() || n.cfg.Net.Crashed(n.cfg.ID) {
		return ErrStopped
	}
	if n.cfg.RPCLatency > 0 {
		time.Sleep(n.cfg.RPCLatency)
	}
	return nil
}

// SendTransaction is the asynchronous submit RPC: it enqueues the
// transaction and returns its ID; clients poll BlocksFrom for
// confirmation (the paper's asynchronous-driver pattern). It returns after
// the signature check, as geth does (ServerSigns nodes sign after it).
func (n *Node) SendTransaction(tx *types.Transaction) (types.Hash, error) {
	if err := n.rpc(); err != nil {
		return types.ZeroHash, err
	}
	// Pin the content hash before the transaction crosses into the
	// server's signing thread: Hash() excludes the signature and caches,
	// so the id the client polls for stays stable while ingestLoop signs
	// the same object concurrently.
	id := tx.Hash()
	if n.router != nil {
		if err := n.router.SubmitTx(tx); err != nil {
			return types.ZeroHash, err
		}
		return id, nil
	}
	if n.ingest != nil {
		select {
		case n.ingest <- tx:
			return id, nil
		default:
			return types.ZeroHash, ErrBusy
		}
	}
	if !n.admit(tx) {
		return types.ZeroHash, ErrRejected
	}
	return id, nil
}

// BlockInfo is the confirmed-block summary returned to pollers.
type BlockInfo struct {
	Number uint64
	TxIDs  []types.Hash
}

// leaseCheck classifies a read RPC against the consensus engine's
// leader lease, if it keeps one: a replica that cannot vouch for
// freshness (follower, or a leader whose lease lapsed) costs the extra
// round trip of redirecting the client to the leader.
func (n *Node) leaseCheck() {
	if n.lease != nil && !n.lease.LeaseRead() && n.cfg.RPCLatency > 0 {
		time.Sleep(n.cfg.RPCLatency)
	}
}

// BlocksFrom returns confirmed canonical blocks above height h — the
// connector's getLatestBlock(h).
func (n *Node) BlocksFrom(h uint64) ([]BlockInfo, error) {
	if err := n.rpc(); err != nil {
		return nil, err
	}
	n.leaseCheck()
	var out []BlockInfo
	height := n.cfg.Chain.Height()
	if height >= n.cfg.ConfirmationDepth {
		confirmed := height - n.cfg.ConfirmationDepth
		for _, b := range n.cfg.Chain.BlocksFrom(h, 0) {
			if b.Number() > confirmed {
				break
			}
			info := BlockInfo{Number: b.Number(), TxIDs: make([]types.Hash, 0, len(b.Txs))}
			for _, tx := range b.Txs {
				info.TxIDs = append(info.TxIDs, tx.Hash())
			}
			out = append(out, info)
		}
	}
	if n.router != nil {
		// Commits routed to foreign chains ride along as one synthetic
		// frame; Number 0 keeps the caller's height cursor untouched.
		if ids := n.router.DrainRemoteCommits(); len(ids) > 0 {
			out = append(out, BlockInfo{TxIDs: ids})
		}
	}
	return out, nil
}

// Height returns the confirmed chain height.
func (n *Node) Height() (uint64, error) {
	if err := n.rpc(); err != nil {
		return 0, err
	}
	h := n.cfg.Chain.Height()
	if h < n.cfg.ConfirmationDepth {
		return 0, nil
	}
	return h - n.cfg.ConfirmationDepth, nil
}

// Block returns the full canonical block at a height (analytics Q1 reads
// transaction lists through this).
func (n *Node) Block(number uint64) (*types.Block, error) {
	if err := n.rpc(); err != nil {
		return nil, err
	}
	b, ok := n.cfg.Chain.GetBlock(number)
	if !ok {
		return nil, fmt.Errorf("node: no block %d", number)
	}
	return b, nil
}

// Query runs a read-only contract method against current state.
func (n *Node) Query(contract, method string, args [][]byte) ([]byte, error) {
	if err := n.rpc(); err != nil {
		return nil, err
	}
	return n.cfg.Chain.Query(contract, method, args)
}

// BalanceAt returns an account balance at a block height (Ethereum's
// getBalance(account, block) JSON-RPC; one version per round trip, which
// is why analytics Q2 needs one RPC per block on these platforms).
func (n *Node) BalanceAt(addr types.Address, number uint64) (uint64, error) {
	if err := n.rpc(); err != nil {
		return 0, err
	}
	return n.cfg.Chain.BalanceAt(addr, number)
}

// AnalyticsQuery serves one analytics request from the node's columnar
// ledger index — one round trip for a whole historical scan, against
// the per-block RPC walk the paper's baseline pays. The scanned range
// is clamped to the node's confirmation height, so analytical reads
// observe exactly the history the node serves as confirmed.
func (n *Node) AnalyticsQuery(q analytics.Query) (analytics.Result, error) {
	if err := n.rpc(); err != nil {
		return analytics.Result{}, err
	}
	n.leaseCheck()
	if n.cfg.Analytics == nil {
		return analytics.Result{}, fmt.Errorf("node %d: analytics index disabled", n.cfg.ID)
	}
	confirmed := uint64(0)
	if h := n.cfg.Chain.Height(); h >= n.cfg.ConfirmationDepth {
		confirmed = h - n.cfg.ConfirmationDepth
	}
	if q.To == 0 || q.To > confirmed+1 {
		q.To = confirmed + 1
	}
	return n.cfg.Analytics.Query(q)
}

// Receipt looks up a committed transaction's receipt.
func (n *Node) Receipt(txHash types.Hash) (*types.Receipt, bool, error) {
	if err := n.rpc(); err != nil {
		return nil, false, err
	}
	n.leaseCheck()
	r, ok := n.cfg.Chain.Receipt(txHash)
	if !ok && n.router != nil && n.router.CommittedElsewhere(txHash) {
		// Routed to a foreign chain and confirmed committed there; the
		// synthetic receipt carries no execution output.
		return &types.Receipt{TxHash: txHash, OK: true}, true, nil
	}
	return r, ok, nil
}
