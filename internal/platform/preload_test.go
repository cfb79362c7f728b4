package platform

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"blockbench/internal/crypto"
	"blockbench/internal/ledger"
	"blockbench/internal/types"
)

// preloadSerial is the reference Preload: one block at a time, built on
// the first chain and appended to every chain in turn before the next is
// built.
func preloadSerial(c *Cluster, batches [][]*types.Transaction) error {
	for _, txs := range batches {
		b, err := c.chains[0].Build(txs, ledger.Meta{Difficulty: 1, Time: int64(c.chains[0].Height() + 1)})
		if err != nil {
			return err
		}
		for _, ch := range c.chains {
			if err := ch.Append(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// preloadBatches signs n batches of per transactions: YCSB writes, with
// every fifth a transfer and every seventh an overdrawing one, so the
// receipts hold failures and the balances move.
func preloadBatches(t *testing.T, keys []*crypto.Key, n, per int) [][]*types.Transaction {
	t.Helper()
	batches := make([][]*types.Transaction, n)
	for b := range batches {
		batches[b] = make([]*types.Transaction, per)
		for i := range batches[b] {
			k := b*per + i
			tx := &types.Transaction{Nonce: 1<<40 + uint64(k), Contract: "ycsb", Method: "write",
				Args: [][]byte{[]byte(fmt.Sprintf("pre-%d", k%37)), []byte(fmt.Sprintf("v-%d", k))}, GasLimit: 100_000}
			switch {
			case k%7 == 0:
				tx = &types.Transaction{Nonce: 1<<40 + uint64(k), To: keys[0].Address(), Value: 1 << 40, GasLimit: 100_000}
			case k%5 == 0:
				tx = &types.Transaction{Nonce: 1<<40 + uint64(k), To: keys[(k+1)%len(keys)].Address(), Value: 3, GasLimit: 100_000}
			}
			if err := crypto.SignTx(tx, keys[k%len(keys)]); err != nil {
				t.Fatal(err)
			}
			batches[b][i] = tx
		}
	}
	return batches
}

// chainView is what a preloaded chain must agree on with the reference:
// its canonical block hashes, receipts, and state roots wherever the
// platform serves the state at that height (every height where it keeps
// history, the head elsewhere).
type chainView struct {
	head     types.Hash
	hashes   []types.Hash
	roots    map[uint64]types.Hash
	receipts [][]types.Receipt
}

func viewOf(t *testing.T, ch *ledger.Chain) chainView {
	t.Helper()
	v := chainView{head: ch.Head().Hash(), roots: map[uint64]types.Hash{}}
	for n := uint64(0); n <= ch.Height(); n++ {
		b, ok := ch.GetBlock(n)
		if !ok {
			t.Fatalf("no block %d below height %d", n, ch.Height())
		}
		v.hashes = append(v.hashes, b.Hash())
		var rs []types.Receipt
		for _, tx := range b.Txs {
			r, ok := ch.Receipt(tx.Hash())
			if !ok {
				t.Fatalf("no receipt for transaction %s of block %d", tx.Hash(), n)
			}
			rs = append(rs, *r)
		}
		v.receipts = append(v.receipts, rs)
		if db, err := ch.StateAt(n); err == nil {
			root, err := db.Commit() // nothing written: the root it stands on
			if err != nil {
				t.Fatal(err)
			}
			v.roots[n] = root
		}
	}
	return v
}

func (v chainView) diff(ref chainView) string {
	if v.head != ref.head {
		return fmt.Sprintf("head %s, want %s", v.head, ref.head)
	}
	if len(v.hashes) != len(ref.hashes) {
		return fmt.Sprintf("%d blocks, want %d", len(v.hashes), len(ref.hashes))
	}
	for n := range ref.hashes {
		if v.hashes[n] != ref.hashes[n] {
			return fmt.Sprintf("block %d is %s, want %s", n, v.hashes[n], ref.hashes[n])
		}
		if len(v.receipts[n]) != len(ref.receipts[n]) {
			return fmt.Sprintf("block %d: %d receipts, want %d", n, len(v.receipts[n]), len(ref.receipts[n]))
		}
		for i, r := range ref.receipts[n] {
			got := v.receipts[n][i]
			if got.TxHash != r.TxHash || got.OK != r.OK || got.GasUsed != r.GasUsed ||
				got.Err != r.Err || !bytes.Equal(got.Output, r.Output) {
				return fmt.Sprintf("block %d receipt %d is %+v, want %+v", n, i, got, r)
			}
		}
	}
	if len(v.roots) != len(ref.roots) {
		return fmt.Sprintf("state served at %d heights, want %d", len(v.roots), len(ref.roots))
	}
	for n, root := range ref.roots {
		if v.roots[n] != root {
			return fmt.Sprintf("state root at %d is %s, want %s", n, v.roots[n], root)
		}
	}
	return ""
}

// TestPreloadConcurrentMatchesSerial holds Preload, which appends on
// every chain at once, to the serial loop it replaced: after both, every
// chain of both clusters has the same head, block hashes, receipts and
// state roots as the reference cluster's node 0. Its bad-signature case
// tampers with one signature in the third of five batches: Preload
// names the transaction, every chain stops at the block before it, and
// no appending goroutine outlives the call.
func TestPreloadConcurrentMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		kind Kind
		opts map[string]string
	}{
		{"quorum-mem", Quorum, map[string]string{"store": "mem"}},
		{"quorum-lsm", Quorum, map[string]string{"store": "lsm"}},
		{"hyperledger", Hyperledger, nil},
		{"sharded", Sharded, nil},
		{"ethereum", Ethereum, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := clientKeys(4)
			batches := preloadBatches(t, keys, 6, 80)
			open := func() *Cluster {
				cfg := fastConfig(tc.kind, 4, keys)
				for k, v := range tc.opts {
					cfg.Options[k] = v
				}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Stop(); c.Close() })
				return c
			}
			ref, got := open(), open()
			if err := preloadSerial(ref, batches); err != nil {
				t.Fatal(err)
			}
			if err := got.Preload(batches); err != nil {
				t.Fatal(err)
			}
			want := viewOf(t, ref.Chain(0))
			if len(want.hashes) != len(batches)+1 {
				t.Fatalf("reference height %d, want %d", len(want.hashes)-1, len(batches))
			}
			failed := 0
			for _, rs := range want.receipts {
				for _, r := range rs {
					if !r.OK {
						failed++
					}
				}
			}
			if failed == 0 || len(want.roots) == 0 {
				t.Fatalf("reference has %d failed receipts and %d state roots: the fixture checks too little", failed, len(want.roots))
			}
			for name, c := range map[string]*Cluster{"serial": ref, "concurrent": got} {
				for i := 0; i < c.Size(); i++ {
					if d := viewOf(t, c.Chain(i)).diff(want); d != "" {
						t.Errorf("%s node %d: %s", name, i, d)
					}
				}
			}
		})
	}
	t.Run("bad-signature", func(t *testing.T) {
		keys := clientKeys(4)
		c, err := New(fastConfig(Quorum, 4, keys))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Stop(); c.Close() })
		batches := preloadBatches(t, keys, 5, 80)
		bad := batches[2][41]
		bad.Sig = bytes.Clone(bad.Sig)
		bad.Sig[4] ^= 0xff

		before := runtime.NumGoroutine()
		err = c.Preload(batches)
		if !errors.Is(err, ledger.ErrBadBlock) || !strings.Contains(err.Error(), bad.Hash().String()) {
			t.Fatalf("Preload = %v, want %v naming %s", err, ledger.ErrBadBlock, bad.Hash())
		}
		for i := 0; i < c.Size(); i++ {
			if h := c.Chain(i).Height(); h != 2 {
				t.Errorf("node %d: height %d when Preload returned, want 2", i, h)
			}
		}
		// A goroutine that has called Done may not have exited yet.
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines after Preload, %d before", n, before)
		}
	})
}
