package platform

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"blockbench/internal/kvstore"
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
