// Package invariant implements the always-on safety checks that run
// alongside every fault-injected benchmark: committed-prefix agreement
// across live nodes, per-node commit-index monotonicity, a replicated
// log that still matches the chain it is applied to, and cross-shard
// commit/abort accounting. The driver feeds the checker
// from its snapshot sampler during the run and from final cluster
// state afterwards; any violation fails the run (and CI) with the
// chaos seed printed, so a broken interleaving reproduces exactly.
//
// The checks are safety properties: they must hold under arbitrary
// crash, partition and link-fault schedules. Liveness (the cluster
// commits anything at all) is asserted separately by the tests.
package invariant

import (
	"fmt"
	"sync"

	"blockbench/internal/types"
)

// ChainView is the read surface the checker inspects — implemented by
// platform.Cluster.
type ChainView interface {
	// Size returns the number of nodes.
	Size() int
	// Down reports whether node i is currently process-killed.
	Down(i int) bool
	// Restarts counts node i's crash-recoveries.
	Restarts(i int) uint64
	// ShardOf returns the shard group whose canonical chain node i
	// follows (0 on single-chain platforms).
	ShardOf(i int) int
	// NodeHeight returns node i's canonical chain height.
	NodeHeight(i int) uint64
	// BlockHash returns node i's block hash at a height (ok=false when
	// absent).
	BlockHash(i int, height uint64) (types.Hash, bool)
}

// Checker accumulates safety-invariant violations over a run. All
// methods are safe for concurrent use.
type Checker struct {
	mu           sync.Mutex
	lastHeights  []uint64
	lastRestarts []uint64
	violations   []string
}

// New returns an empty checker.
func New() *Checker { return &Checker{} }

// Add records a violation found by an external check (workload-level
// invariants plug in here).
func (c *Checker) Add(violation string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(violation)
}

func (c *Checker) addLocked(v string) {
	// Bound the list: one interleaving bug tends to spray repeats.
	if len(c.violations) < 64 {
		c.violations = append(c.violations, v)
	}
}

// Violations returns everything recorded so far (nil when clean).
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// ObserveHeights samples per-node chain heights. A node whose height
// regressed since the previous sample without an intervening restart
// has un-committed agreed history — a safety violation on every
// platform (longest-chain growth and consensus commit indexes are both
// monotone). Killed nodes are skipped; a restart resets the baseline.
func (c *Checker) ObserveHeights(v ChainView) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := v.Size()
	if c.lastHeights == nil {
		c.lastHeights = make([]uint64, n)
		c.lastRestarts = make([]uint64, n)
		for i := range c.lastRestarts {
			c.lastRestarts[i] = v.Restarts(i)
		}
	}
	for i := 0; i < n; i++ {
		if v.Down(i) {
			continue
		}
		h := v.NodeHeight(i)
		r := v.Restarts(i)
		if r == c.lastRestarts[i] && h < c.lastHeights[i] {
			c.addLocked(fmt.Sprintf(
				"monotonicity: node %d height regressed %d -> %d without a restart",
				i, c.lastHeights[i], h))
		}
		c.lastHeights[i] = h
		c.lastRestarts[i] = r
	}
}

// CheckAgreement verifies committed-prefix agreement: within each shard
// group, every live node holds byte-identical blocks up to the group's
// minimum height minus depth (the platform's confirmation depth plus a
// reorg margin on forking chains). One violation is recorded per
// disagreeing group, anchored at the lowest divergent height.
func (c *Checker) CheckAgreement(v ChainView, depth uint64) {
	groups := make(map[int][]int)
	for i := 0; i < v.Size(); i++ {
		if v.Down(i) {
			continue
		}
		groups[v.ShardOf(i)] = append(groups[v.ShardOf(i)], i)
	}
	for g, nodes := range groups {
		if len(nodes) < 2 {
			continue
		}
		min := v.NodeHeight(nodes[0])
		for _, i := range nodes[1:] {
			if h := v.NodeHeight(i); h < min {
				min = h
			}
		}
		if min <= depth {
			continue
		}
		limit := min - depth
		ref := nodes[0]
	scan:
		for h := uint64(1); h <= limit; h++ {
			want, ok := v.BlockHash(ref, h)
			if !ok {
				continue
			}
			for _, i := range nodes[1:] {
				got, ok2 := v.BlockHash(i, h)
				if ok2 && got != want {
					c.Add(fmt.Sprintf(
						"agreement: shard %d: nodes %d and %d disagree at height %d (%x vs %x), group min height %d",
						g, ref, i, h, want[:4], got[:4], min))
					break scan
				}
			}
		}
	}
}

// CheckXShard audits the cross-shard two-phase-commit accounting from
// the cluster's absolute counters (not a run's delta, which a
// coordination spanning the run's start puts out of balance): every
// coordinated transaction resolves at most once, so commits+aborts can
// never exceed coordinated txs. Only that direction is a violation; a
// shortfall just means coordinations were still pending at sample time.
func (c *Checker) CheckXShard(counters map[string]uint64) {
	txs, ok := counters["xshard.txs"]
	if !ok {
		return
	}
	commits := counters["xshard.commits"]
	aborts := counters["xshard.aborts"]
	if commits+aborts > txs {
		c.Add(fmt.Sprintf(
			"xshard accounting: commits(%d)+aborts(%d) > coordinated txs(%d): a transaction resolved twice",
			commits, aborts, txs))
	}
}

// ApplyView locates apply mismatches per node — implemented by
// platform.Cluster.
type ApplyView interface {
	Size() int
	// ApplyMismatch reports the first log index node i could not account
	// for and the height whose block held other transactions (ok=false:
	// none, or the node is down or keeps no replicated log).
	ApplyMismatch(i int) (index, height uint64, ok bool)
}

// CheckApply turns a non-zero raft.apply_mismatches count into located
// violations: a replica found a block already on its chain at the height
// a committed log entry accounts for, holding different transactions —
// its chain and the group's log diverged at or before that block, and it
// stopped applying there. A mismatch counted by an incarnation that has
// since been killed has lost its location and is reported bare.
func (c *Checker) CheckApply(counters map[string]uint64, v ApplyView) {
	left := counters["raft.apply_mismatches"]
	for i := 0; i < v.Size() && left > 0; i++ {
		if index, height, ok := v.ApplyMismatch(i); ok {
			left--
			c.Add(fmt.Sprintf(
				"apply: node %d: committed log index %d accounts for height %d, but a different block is already there",
				i, index, height))
		}
	}
	if left > 0 {
		c.Add(fmt.Sprintf("apply: %d mismatch(es) counted on nodes since killed", left))
	}
}
