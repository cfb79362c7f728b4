package blockbench

import (
	"sync/atomic"

	"blockbench/internal/crypto"
	"blockbench/internal/node"
	"blockbench/internal/trace"
	"blockbench/internal/types"
)

// Op is one workload operation, wrapped by the driver into a blockchain
// transaction (IWorkloadConnector's getNextTransaction output).
type Op struct {
	Contract string // empty = plain value transfer
	Method   string
	Args     [][]byte
	Value    uint64
	To       Address // value-transfer recipient
	GasLimit uint64  // 0 = the driver default
}

// DefaultGasLimit is attached to operations that do not set their own.
const DefaultGasLimit = 500_000

// Client is the paper's IBlockchainConnector client half: one identity
// talking to one server, submitting transactions asynchronously and
// polling confirmed blocks. Fail-over state is per Client; the nonce
// sequence belongs to the identity and lives on the Cluster, so every
// Client of one identity — on any server, in any run — draws from it
// and no two of them build the same transaction.
type Client struct {
	cluster   *Cluster
	key       *crypto.Key
	server    atomic.Int32
	signLocal bool
	id        int
	nonce     *atomic.Uint64
}

// ID returns the client's index.
func (c *Client) ID() int { return c.id }

// Server returns the index of the server node this client submits to
// and polls.
func (c *Client) Server() int { return int(c.server.Load()) }

// Failover re-points the client at another server. The driver calls it
// when submissions to the current server keep failing.
func (c *Client) Failover(server int) { c.server.Store(int32(server)) }

// nodeRef resolves the server index to its current incarnation on every
// call: after a crash-recovery the previous *node.Node is a stopped
// husk, so holding a pointer across calls would wedge the client.
func (c *Client) nodeRef() *node.Node { return c.cluster.nodeAt(int(c.server.Load())) }

// Address returns the client's account address.
func (c *Client) Address() Address { return c.key.Address() }

// buildTx turns an operation into a transaction, assigning a fresh nonce
// and signing client-side unless the platform signs at the server
// (Parity).
func (c *Client) buildTx(op Op) (*types.Transaction, error) {
	gas := op.GasLimit
	if gas == 0 {
		gas = DefaultGasLimit
	}
	tx := &types.Transaction{
		Nonce:    c.nonce.Add(1),
		From:     c.key.Address(),
		To:       op.To,
		Value:    op.Value,
		Contract: op.Contract,
		Method:   op.Method,
		Args:     op.Args,
		GasLimit: gas,
	}
	if c.signLocal {
		if err := crypto.SignTx(tx, c.key); err != nil {
			return nil, err
		}
	}
	return tx, nil
}

// Send submits an operation asynchronously, returning the transaction ID
// to poll for.
func (c *Client) Send(op Op) (Hash, error) {
	tx, err := c.buildTx(op)
	if err != nil {
		return Hash{}, err
	}
	// The submit stamp opens the lifecycle span (sampling is decided
	// here, once, from the ID) before the server can race ahead to the
	// later stages. A rejected submission will never confirm, so its
	// span is discarded rather than left live until the next run.
	tracer := c.cluster.inner.Tracer()
	tracer.Stamp(tx.Hash(), trace.StageSubmit)
	id, err := c.nodeRef().SendTransaction(tx)
	if err != nil {
		tracer.Abort(tx.Hash())
	}
	return id, err
}

// BlocksFrom polls confirmed blocks above height h (getLatestBlock).
func (c *Client) BlocksFrom(h uint64) ([]node.BlockInfo, error) {
	return c.nodeRef().BlocksFrom(h)
}

// Height returns the confirmed chain height at the client's server.
func (c *Client) Height() (uint64, error) { return c.nodeRef().Height() }

// Committed reports whether the transaction has a receipt on the
// server's canonical chain, at any depth. It is a receipt lookup, not
// the driver's confirmation rule, which waits ConfirmationDepth blocks
// (BlocksFrom).
func (c *Client) Committed(id Hash) (bool, error) {
	_, ok, err := c.nodeRef().Receipt(id)
	return ok, err
}

// Query runs a read-only contract method at the client's server.
func (c *Client) Query(contract, method string, args ...[]byte) ([]byte, error) {
	return c.nodeRef().Query(contract, method, args)
}

// Analytics runs one server-side analytics query at the client's
// server — the indexed read path behind `-wopt mode=indexed`: the
// whole historical scan costs a single round trip.
func (c *Client) Analytics(q AnalyticsQuery) (AnalyticsResult, error) {
	return c.nodeRef().AnalyticsQuery(q)
}

// Block fetches a full block (analytics Q1 uses one RPC per block).
func (c *Client) Block(number uint64) (*types.Block, error) {
	return c.nodeRef().Block(number)
}

// BalanceAt reads an account balance at a block height (analytics Q2 on
// Ethereum/Parity: one RPC per block scanned).
func (c *Client) BalanceAt(addr Address, number uint64) (uint64, error) {
	return c.nodeRef().BalanceAt(addr, number)
}
