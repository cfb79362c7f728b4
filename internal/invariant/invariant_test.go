package invariant

import (
	"strings"
	"testing"

	"blockbench/internal/types"
)

// fakeView scripts a cluster for the checker.
type fakeView struct {
	heights  []uint64
	restarts []uint64
	down     []bool
	shards   []int
	hashes   map[int]map[uint64]types.Hash
}

func newFakeView(n int) *fakeView {
	return &fakeView{
		heights:  make([]uint64, n),
		restarts: make([]uint64, n),
		down:     make([]bool, n),
		shards:   make([]int, n),
		hashes:   make(map[int]map[uint64]types.Hash),
	}
}

func (f *fakeView) Size() int               { return len(f.heights) }
func (f *fakeView) Down(i int) bool         { return f.down[i] }
func (f *fakeView) Restarts(i int) uint64   { return f.restarts[i] }
func (f *fakeView) ShardOf(i int) int       { return f.shards[i] }
func (f *fakeView) NodeHeight(i int) uint64 { return f.heights[i] }

func (f *fakeView) BlockHash(i int, h uint64) (types.Hash, bool) {
	hash, ok := f.hashes[i][h]
	return hash, ok
}

func (f *fakeView) setHash(i int, h uint64, b byte) {
	if f.hashes[i] == nil {
		f.hashes[i] = make(map[uint64]types.Hash)
	}
	var hash types.Hash
	hash[0] = b
	f.hashes[i][h] = hash
}

func TestObserveHeightsMonotone(t *testing.T) {
	v := newFakeView(2)
	c := New()
	v.heights = []uint64{5, 5}
	c.ObserveHeights(v)
	v.heights = []uint64{6, 7}
	c.ObserveHeights(v)
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("clean growth flagged: %v", got)
	}
	v.heights[1] = 3 // regression, no restart
	c.ObserveHeights(v)
	got := c.Violations()
	if len(got) != 1 || !strings.Contains(got[0], "monotonicity") {
		t.Fatalf("regression not flagged: %v", got)
	}
}

func TestObserveHeightsRestartResetsBaseline(t *testing.T) {
	v := newFakeView(2)
	c := New()
	v.heights = []uint64{9, 9}
	c.ObserveHeights(v)
	// Node 1 crash-recovers onto a shorter persisted chain: legitimate.
	v.heights[1] = 2
	v.restarts[1] = 1
	c.ObserveHeights(v)
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("post-restart height flagged: %v", got)
	}
}

func TestObserveHeightsSkipsDownNodes(t *testing.T) {
	v := newFakeView(2)
	c := New()
	v.heights = []uint64{4, 4}
	c.ObserveHeights(v)
	v.down[1] = true
	v.heights[1] = 0
	c.ObserveHeights(v)
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("down node sampled: %v", got)
	}
}

func TestCheckAgreementFlagsDivergence(t *testing.T) {
	v := newFakeView(3)
	v.heights = []uint64{10, 10, 10}
	for i := 0; i < 3; i++ {
		for h := uint64(1); h <= 10; h++ {
			v.setHash(i, h, byte(h))
		}
	}
	c := New()
	c.CheckAgreement(v, 2)
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("identical chains flagged: %v", got)
	}
	v.setHash(2, 4, 0xff) // node 2 forked at height 4
	c = New()
	c.CheckAgreement(v, 2)
	got := c.Violations()
	if len(got) != 1 || !strings.Contains(got[0], "agreement") {
		t.Fatalf("divergence not flagged: %v", got)
	}
}

func TestCheckAgreementRespectsDepthAndShards(t *testing.T) {
	v := newFakeView(4)
	v.heights = []uint64{10, 10, 10, 10}
	v.shards = []int{0, 0, 1, 1}
	for i := 0; i < 4; i++ {
		for h := uint64(1); h <= 10; h++ {
			v.setHash(i, h, byte(h))
		}
	}
	// Divergence inside the confirmation-depth window is a pending
	// reorg, not a safety violation.
	v.setHash(1, 10, 0xaa)
	c := New()
	c.CheckAgreement(v, 3)
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("tip divergence inside depth flagged: %v", got)
	}
	// Shards have independent chains: node 2 and node 0 differing at
	// the same height is normal.
	v.setHash(2, 5, 0xbb)
	v.setHash(3, 5, 0xbb)
	c = New()
	c.CheckAgreement(v, 3)
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("cross-shard difference flagged: %v", got)
	}
}

func TestCheckXShardAccounting(t *testing.T) {
	c := New()
	c.CheckXShard(map[string]uint64{"xshard.txs": 10, "xshard.commits": 6, "xshard.aborts": 4})
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("exact accounting flagged: %v", got)
	}
	// A shortfall just means coordinations were in flight at sampling.
	c.CheckXShard(map[string]uint64{"xshard.txs": 10, "xshard.commits": 3, "xshard.aborts": 1})
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("in-flight shortfall flagged: %v", got)
	}
	// The checker is meant to see the cluster's absolute counters. A
	// coordination open when a run began (txs 10, commits 8, aborts 1)
	// and resolved during it makes the run's delta read commits 6 > txs
	// 5, while the absolutes at its end stay consistent.
	c.CheckXShard(map[string]uint64{"xshard.txs": 15, "xshard.commits": 14, "xshard.aborts": 1})
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("absolute counters across a run boundary flagged: %v", got)
	}
	c.CheckXShard(map[string]uint64{"xshard.txs": 10, "xshard.commits": 8, "xshard.aborts": 3})
	got := c.Violations()
	if len(got) != 1 || !strings.Contains(got[0], "xshard") {
		t.Fatalf("over-resolution not flagged: %v", got)
	}
	// Unsharded platforms expose no xshard counters at all.
	c = New()
	c.CheckXShard(map[string]uint64{})
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("missing counters flagged: %v", got)
	}
}

func TestViolationListBounded(t *testing.T) {
	c := New()
	for i := 0; i < 200; i++ {
		c.Add("v")
	}
	if got := len(c.Violations()); got != 64 {
		t.Fatalf("violations = %d, want capped at 64", got)
	}
}

// fakeApply scripts per-node apply mismatches (index, height; zero: none).
type fakeApply [][2]uint64

func (f fakeApply) Size() int { return len(f) }
func (f fakeApply) ApplyMismatch(i int) (uint64, uint64, bool) {
	return f[i][0], f[i][1], f[i][0] != 0
}

func TestCheckApplyLocatesMismatches(t *testing.T) {
	c := New()
	c.CheckApply(map[string]uint64{"raft.apply_mismatches": 0}, fakeApply{{0, 0}, {7, 5}})
	c.CheckApply(map[string]uint64{}, fakeApply{{0, 0}})
	if got := c.Violations(); len(got) != 0 {
		t.Fatalf("zero count flagged: %v", got)
	}
	c.CheckApply(map[string]uint64{"raft.apply_mismatches": 2}, fakeApply{{0, 0}, {812, 640}, {0, 0}})
	got := c.Violations()
	if len(got) != 2 {
		t.Fatalf("want a located and a bare violation, got %v", got)
	}
	for _, want := range []string{"node 1", "index 812", "height 640"} {
		if !strings.Contains(got[0], want) {
			t.Fatalf("violation %q does not locate %q", got[0], want)
		}
	}
	if !strings.Contains(got[1], "1 mismatch(es) counted on nodes since killed") {
		t.Fatalf("unlocated remainder not reported: %q", got[1])
	}
}
