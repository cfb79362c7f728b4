package blockbench

import (
	"fmt"
	"math/rand"
	"time"

	"blockbench/internal/crypto"
	"blockbench/internal/types"
)

// The workload implementations live one per file (ycsb.go, smallbank.go,
// etherid.go, doubler.go, wavespresale.go, donothing.go, ioheavy.go,
// cpuheavy.go, analytics.go, htap.go), each registering itself with the
// workload registry in its init block. This file holds the preload
// machinery they share.

// preloadOps seeds the blockchain with the given operations before
// measurement starts ("preloads each store with a number of records").
// On a stopped cluster it force-appends blocks directly, bypassing
// consensus; on a running cluster it submits through the normal
// transaction path and waits for confirmation.
func (c *Cluster) preloadOps(ops []Op, batch int) error {
	if batch <= 0 {
		batch = 200
	}
	txs := make([]*types.Transaction, len(ops))
	for i, op := range ops {
		gas := op.GasLimit
		if gas == 0 {
			gas = DefaultGasLimit
		}
		key := c.keys[i%len(c.keys)]
		tx := &types.Transaction{
			// High nonce range keeps preload hashes disjoint from
			// driver traffic.
			Nonce:    uint64(1)<<40 + uint64(i),
			From:     key.Address(),
			To:       op.To,
			Value:    op.Value,
			Contract: op.Contract,
			Method:   op.Method,
			Args:     op.Args,
			GasLimit: gas,
		}
		// Parity signs server-side on the live path; the direct-append
		// path bypasses the server, so preload signs client-side there.
		if !c.started || c.Kind() != Parity {
			if err := crypto.SignTx(tx, key); err != nil {
				return err
			}
		}
		txs[i] = tx
	}
	if !c.started {
		var batches [][]*types.Transaction
		for len(txs) > 0 {
			n := min(batch, len(txs))
			batches = append(batches, txs[:n])
			txs = txs[n:]
		}
		return c.inner.Preload(batches)
	}
	return c.preloadLive(txs)
}

// preloadLive submits preload transactions through consensus and waits
// until they are all committed. Both phases share one deadline, and the
// submit retry backs off exponentially, so a permanently-busy server
// surfaces as an error instead of an unbounded spin.
func (c *Cluster) preloadLive(txs []*types.Transaction) error {
	deadline := time.Now().Add(5 * time.Minute)
	for i, tx := range txs {
		n := c.nodeAt(i % c.Size())
		backoff := time.Millisecond
		for {
			if _, err := n.SendTransaction(tx); err == nil {
				break
			} else if time.Now().After(deadline) {
				return fmt.Errorf("blockbench: preload submit timed out at tx %d/%d: %w", i+1, len(txs), err)
			}
			time.Sleep(backoff) // server busy: retry
			if backoff < 64*time.Millisecond {
				backoff *= 2
			}
		}
	}
	for i, tx := range txs {
		// Poll the node the transaction was submitted through: on the
		// sharded platform only the gateway can vouch for commits that
		// landed on foreign shard chains.
		srv := c.nodeAt(i % c.Size())
		for {
			if _, ok, _ := srv.Receipt(tx.Hash()); ok {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("blockbench: preload timed out with %s pending", tx.Hash())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

func randValue(rng *rand.Rand, n int) []byte {
	v := make([]byte, n)
	rng.Read(v)
	return v
}
