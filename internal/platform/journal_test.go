package platform

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/types"
)

// TestAppendBlockKeyMatchesSprintf pins the journal's keys to the bytes
// fmt.Sprintf("blk:%016d", n) wrote before they were built in scratch:
// zero-padded below 10^16, every digit above.
func TestAppendBlockKeyMatchesSprintf(t *testing.T) {
	prefix := []byte("meta:x")
	for _, n := range []uint64{0, 1, 1e15, 1e16 - 1, 1e16, math.MaxUint64} {
		want := fmt.Sprintf("blk:%016d", n)
		if got := appendBlockKey(nil, n); string(got) != want {
			t.Errorf("appendBlockKey(nil, %d) = %q, want %q", n, got, want)
		}
		if got := appendBlockKey(bytes.Clone(prefix), n); string(got) != string(prefix)+want {
			t.Errorf("appendBlockKey after %q, %d = %q", prefix, n, got)
		}
	}
}

// TestStoreMetaAllocBudget: a hard-state save costs the store's record
// and nothing else, the key being built in the adapter's scratch, and a
// load reads back what was saved.
func TestStoreMetaAllocBudget(t *testing.T) {
	m := &storeMeta{s: kvstore.NewMem()}
	value := make([]byte, 41)
	if got := testing.AllocsPerRun(100, func() { m.SaveMeta("raft:hard", value) }); got != 1 {
		t.Errorf("SaveMeta over Mem: %v allocations, want 1 (the store's record)", got)
	}
	value[0] = 7
	m.SaveMeta("raft:hard", value)
	value[0] = 8 // borrowed for the call only
	if got, ok := m.LoadMeta("raft:hard"); !ok || len(got) != 41 || got[0] != 7 {
		t.Errorf("LoadMeta = %v, %v; want the 41 bytes saved", got, ok)
	}
}

// TestJournalReplay rebuilds a crashed node over a journal of three
// preloaded blocks, one record of which is damaged. A torn last record
// ends the replay before it, as a crash leaves it. A record in the
// middle that does not decode, or a journaled block whose header no
// longer matches its execution, fails the rebuild with the height named.
func TestJournalReplay(t *testing.T) {
	for _, tc := range []struct {
		name   string
		height uint64
		damage func(v []byte) []byte
		want   string // in the error; "" when the rebuild succeeds
	}{
		{"torn-last", 3, func(v []byte) []byte { return v[:len(v)/2] }, ""},
		{"torn-middle", 2, func(v []byte) []byte { return v[:len(v)/2] }, "journaled block 2 does not decode"},
		{"wrong-root", 2, func(v []byte) []byte {
			b, err := types.DecodeBlock(v)
			if err != nil {
				t.Fatal(err)
			}
			b.Header.StateRoot = types.HashData([]byte("wrong"))
			return types.EncodeBlock(b)
		}, "replaying journaled block 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := clientKeys(2)
			c, err := New(fastConfig(Quorum, 1, keys))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Stop(); c.Close() })
			if err := c.Preload(preloadBatches(t, keys, 3, 10)); err != nil {
				t.Fatal(err)
			}
			c.Crash(0)
			store := c.stores[0]
			key := appendBlockKey(nil, tc.height)
			v, ok, err := store.Get(key)
			if err != nil || !ok {
				t.Fatalf("journal record %d: %v, %v", tc.height, ok, err)
			}
			store.Put(key, tc.damage(bytes.Clone(v)))

			c.mu.Lock()
			err = c.buildNode(0, store)
			c.mu.Unlock()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("rebuild: %v", err)
			case tc.want == "" && c.chains[0].Height() != tc.height-1:
				t.Fatalf("replayed to height %d, want %d", c.chains[0].Height(), tc.height-1)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("rebuild = %v, want an error containing %q", err, tc.want)
			case tc.name == "wrong-root" && !errors.Is(err, ledger.ErrBadBlock):
				t.Fatalf("rebuild = %v, want %v", err, ledger.ErrBadBlock)
			}
		})
	}
}
