package raft

import (
	"encoding/hex"
	"sync"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/schedtest"
	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// fastOptions keeps elections and batching quick for tests.
func fastOptions() Options {
	o := DefaultOptions()
	o.ElectionTimeout = 60 * time.Millisecond
	o.Heartbeat = 5 * time.Millisecond
	o.BatchTimeout = 5 * time.Millisecond
	return o
}

type testNode struct {
	e     *Engine
	ep    *simnet.Endpoint
	chain *ledger.Chain
	pool  *txpool.Pool
	stop  chan struct{}
}

type testCluster struct {
	net      *simnet.Network
	nodes    []*testNode
	pumps    sync.WaitGroup
	stopOnce sync.Once
}

// stop halts every engine and pump and closes the network. Cleanup calls
// it; a test calls it first when it is about to compare two reads of a
// chain (KnownBlocks against Height), which on a live cluster a block
// landing between them makes unequal without any fork.
func (c *testCluster) stop() {
	c.stopOnce.Do(func() {
		for _, tn := range c.nodes {
			tn.e.Stop()
			close(tn.stop)
		}
		// A pump may still be inside Handle (which sends); the network
		// must outlive every pump.
		c.pumps.Wait()
		c.net.Close()
	})
}

// newTestCluster boots n replicas over a fresh simnet, each with its own
// chain, pool and a pump goroutine standing in for the node inbox loop.
func newTestCluster(t testing.TB, n int, opts Options) *testCluster {
	t.Helper()
	net := simnet.New(simnet.Config{
		BaseLatency: 50 * time.Microsecond,
		Jitter:      50 * time.Microsecond,
		InboxSize:   4096,
		Seed:        1,
	})
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i)
	}
	c := &testCluster{net: net}
	for i := 0; i < n; i++ {
		pool := txpool.New(1 << 16)
		chain := schedtest.Chain(t, pool.MarkIncluded, "donothing")
		ep := net.Join(simnet.NodeID(i))
		tn := &testNode{
			ep:    ep,
			chain: chain,
			pool:  pool,
			stop:  make(chan struct{}),
		}
		tn.e = New(consensus.Context{
			Self:     simnet.NodeID(i),
			Endpoint: ep,
			Chain:    chain,
			Pool:     pool,
			Peers:    peers,
		}, opts)
		c.pumps.Add(1)
		go func(tn *testNode) {
			defer c.pumps.Done()
			for {
				select {
				case <-tn.stop:
					return
				case msg := <-tn.ep.Inbox:
					tn.e.Handle(msg)
				}
			}
		}(tn)
		c.nodes = append(c.nodes, tn)
	}
	t.Cleanup(c.stop)
	for _, tn := range c.nodes {
		tn.e.Start()
	}
	return c
}

// logLen returns the resident log length (entries past the snapshot) —
// the quantity compaction bounds.
func logLen(e *Engine) int {
	e.Lock()
	defer e.Unlock()
	return len(e.core.log)
}

// leader returns the index of the single live leader, or -1.
func (c *testCluster) leader(skip map[int]bool) int {
	found := -1
	for i, tn := range c.nodes {
		if skip[i] {
			continue
		}
		if tn.e.IsLeader() {
			if found >= 0 {
				return -1 // two leaders visible; not settled yet
			}
			found = i
		}
	}
	return found
}

func (c *testCluster) waitLeader(t testing.TB, skip map[int]bool) int {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if l := c.leader(skip); l >= 0 {
			return l
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return -1
}

// submit puts the same transaction into every live pool, standing in for
// the node layer's gossip.
func (c *testCluster) submit(i int, skip map[int]bool) *types.Transaction {
	tx := &types.Transaction{
		Nonce:    uint64(i),
		Contract: "donothing",
		Method:   "nop",
		GasLimit: 100_000,
	}
	for j, tn := range c.nodes {
		if !skip[j] {
			tn.pool.Add(tx)
		}
	}
	return tx
}

func (c *testCluster) waitCommitted(t testing.TB, txs []*types.Transaction, skip map[int]bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for i, tn := range c.nodes {
			if skip[i] {
				continue
			}
			for _, tx := range txs {
				if _, ok := tn.chain.Receipt(tx.Hash()); !ok {
					done = false
					break
				}
			}
			if !done {
				break
			}
		}
		if done {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("transactions not committed everywhere (node0 height=%d)", c.nodes[0].chain.Height())
}

func TestMajorityMath(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 8: 5, 9: 5}
	for n, want := range cases {
		peers := make([]simnet.NodeID, n)
		for i := range peers {
			peers[i] = simnet.NodeID(i)
		}
		e := New(consensus.Context{Peers: peers}, DefaultOptions())
		if got := e.core.majority(); got != want {
			t.Errorf("n=%d: majority = %d, want %d", n, got, want)
		}
	}
}

func TestWireSizes(t *testing.T) {
	if (&RequestVote{}).WireSize() != 24 {
		t.Fatal("request-vote size wrong")
	}
	ae := &AppendEntries{Entries: []Entry{{Txs: []*types.Transaction{{Method: "m"}}}}}
	if ae.WireSize() <= 48 {
		t.Fatal("append-entries size ignores entries")
	}
	if (&AppendEntries{}).WireSize() != 48 {
		t.Fatal("heartbeat size wrong")
	}
	if (&AppendResp{}).WireSize() != 32 {
		t.Fatal("append-resp size wrong")
	}
}

func TestVoteRestrictionPrefersCompleteLogs(t *testing.T) {
	peers := []simnet.NodeID{0, 1, 2}
	e := New(consensus.Context{Self: 0, Peers: peers}, DefaultOptions())
	e.Lock()
	e.core.log = []Entry{{Term: 1}, {Term: 2}}
	if e.core.upToDate(1, 2) {
		t.Fatal("granted vote to a shorter log of the same last term")
	}
	if e.core.upToDate(5, 1) {
		t.Fatal("granted vote to a longer log with an older last term")
	}
	if !e.core.upToDate(2, 2) {
		t.Fatal("rejected an equal log")
	}
	if !e.core.upToDate(1, 3) {
		t.Fatal("rejected a newer-term log")
	}
	e.Unlock()
}

func TestElectsSingleLeader(t *testing.T) {
	c := newTestCluster(t, 5, fastOptions())
	l := c.waitLeader(t, nil)
	// Terms converge and exactly one leader remains.
	time.Sleep(100 * time.Millisecond)
	if again := c.leader(nil); again != l {
		// A re-election can legitimately move the crown; just require
		// that some single leader exists.
		if again < 0 {
			t.Fatalf("leadership did not settle (was %d)", l)
		}
	}
}

func TestReplicatesBatchesToAllReplicas(t *testing.T) {
	c := newTestCluster(t, 4, fastOptions())
	c.waitLeader(t, nil)
	var txs []*types.Transaction
	for i := 0; i < 30; i++ {
		txs = append(txs, c.submit(i, nil))
	}
	c.waitCommitted(t, txs, nil)
	// All replicas converged on identical chains with no forks.
	c.stop()
	h0 := c.nodes[0].chain.Height()
	ref, _ := c.nodes[0].chain.GetBlock(h0)
	for i, tn := range c.nodes {
		if tn.chain.Height() < h0 {
			continue // laggard within a heartbeat of catching up
		}
		b, ok := tn.chain.GetBlock(h0)
		if !ok || b.Hash() != ref.Hash() {
			t.Fatalf("node %d diverged at height %d", i, h0)
		}
		if tn.chain.KnownBlocks() != tn.chain.Height() {
			t.Fatalf("node %d has side-chain blocks: raft must never fork", i)
		}
	}
}

func TestLeaderCrashTriggersReElection(t *testing.T) {
	c := newTestCluster(t, 5, fastOptions())
	old := c.waitLeader(t, nil)

	var txs []*types.Transaction
	for i := 0; i < 10; i++ {
		txs = append(txs, c.submit(i, nil))
	}
	c.waitCommitted(t, txs, nil)

	c.net.Crash(simnet.NodeID(old))
	skip := map[int]bool{old: true}
	deadline := time.Now().Add(10 * time.Second)
	nl := -1
	for time.Now().Before(deadline) {
		if l := c.leader(skip); l >= 0 && l != old {
			nl = l
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if nl < 0 {
		t.Fatal("no new leader after crash")
	}

	txs = nil
	for i := 100; i < 110; i++ {
		txs = append(txs, c.submit(i, skip))
	}
	c.waitCommitted(t, txs, skip)
}

func TestNoProgressWithoutMajority(t *testing.T) {
	c := newTestCluster(t, 4, fastOptions())
	c.waitLeader(t, nil)
	// Crash 2 of 4: the rest cannot reach majority 3.
	c.net.Crash(2)
	c.net.Crash(3)
	skip := map[int]bool{2: true, 3: true}
	time.Sleep(150 * time.Millisecond) // let any in-flight commits land
	h := c.nodes[0].chain.Height()
	for i := 0; i < 5; i++ {
		c.submit(i, skip)
	}
	time.Sleep(400 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if got := c.nodes[i].chain.Height(); got != h {
			t.Fatalf("node %d advanced from %d to %d without a majority", i, h, got)
		}
	}
}

func TestPartitionedMinorityRejoins(t *testing.T) {
	c := newTestCluster(t, 5, fastOptions())
	c.waitLeader(t, nil)

	// Cut off nodes 0-1; the 3-node majority keeps committing.
	c.net.PartitionGroups([][]simnet.NodeID{{0, 1}})
	skip := map[int]bool{0: true, 1: true}
	var txs []*types.Transaction
	for i := 0; i < 20; i++ {
		txs = append(txs, c.submit(i, skip))
	}
	c.waitCommitted(t, txs, skip)

	// Heal: the minority must adopt the majority's log and catch up
	// without ever having forked the chain.
	c.net.Heal()
	c.waitCommitted(t, txs, nil)
	c.stop()
	for i, tn := range c.nodes {
		if tn.chain.KnownBlocks() != tn.chain.Height() {
			t.Fatalf("node %d forked during the partition", i)
		}
	}
}

func TestElectionsMetricCounts(t *testing.T) {
	c := newTestCluster(t, 3, fastOptions())
	c.waitLeader(t, nil)
	var started uint64
	for _, tn := range c.nodes {
		started += tn.e.Counters()["raft.elections"]
	}
	if started == 0 {
		t.Fatal("leader exists but no election was counted")
	}
}

// TestCompactionBoundsResidentLog drives enough committed entries past
// a tiny retention window that every replica compacts, and checks the
// resident log stays bounded while the chains remain identical.
func TestCompactionBoundsResidentLog(t *testing.T) {
	opts := fastOptions()
	opts.BatchSize = 2
	opts.BatchTimeout = time.Millisecond
	opts.Retain = 8
	c := newTestCluster(t, 3, opts)
	c.waitLeader(t, nil)
	var txs []*types.Transaction
	for i := 0; i < 60; i++ {
		txs = append(txs, c.submit(i, nil))
		if i%10 == 9 { // let entries accumulate in several proposals
			c.waitCommitted(t, txs, nil)
		}
	}
	c.waitCommitted(t, txs, nil)
	for i, tn := range c.nodes {
		if tn.e.Counters()["raft.compactions"] == 0 {
			t.Errorf("node %d never compacted (log len %d)", i, logLen(tn.e))
		}
		// Resident log = retained applied prefix (≤ Retain) plus any
		// not-yet-applied tail (bounded by the proposal window).
		if got := logLen(tn.e); got > opts.Retain+window {
			t.Errorf("node %d resident log %d exceeds retain+window %d", i, got, opts.Retain+window)
		}
	}
	h0 := c.nodes[0].chain.Height()
	for i, tn := range c.nodes {
		if tn.chain.Height() < h0 {
			continue
		}
		for h := uint64(1); h <= h0; h++ {
			a, _ := c.nodes[0].chain.GetBlock(h)
			b, ok := tn.chain.GetBlock(h)
			if !ok || a.Hash() != b.Hash() {
				t.Fatalf("node %d diverged at height %d after compaction", i, h)
			}
		}
	}
}

// TestSnapshotInstallRejoin partitions one follower, commits far past
// the retention window so the leader compacts beyond the follower's
// log, then heals: the follower must rejoin via InstallSnapshot plus
// the chain sync and converge to byte-identical blocks.
func TestSnapshotInstallRejoin(t *testing.T) {
	opts := fastOptions()
	opts.BatchSize = 2
	opts.BatchTimeout = time.Millisecond
	opts.Retain = 4
	c := newTestCluster(t, 3, opts)
	c.waitLeader(t, nil)

	// A little committed traffic everywhere first.
	var txs []*types.Transaction
	for i := 0; i < 6; i++ {
		txs = append(txs, c.submit(i, nil))
	}
	c.waitCommitted(t, txs, nil)

	// Partition a follower and commit well past the retention window.
	lagger := -1
	for i, tn := range c.nodes {
		if !tn.e.IsLeader() {
			lagger = i
			break
		}
	}
	c.net.PartitionGroups([][]simnet.NodeID{{simnet.NodeID(lagger)}})
	skip := map[int]bool{lagger: true}
	txs = nil
	for i := 100; i < 160; i++ {
		txs = append(txs, c.submit(i, skip))
		if i%10 == 9 {
			c.waitCommitted(t, txs, skip)
		}
	}
	c.waitCommitted(t, txs, skip)
	var compacted bool
	for i, tn := range c.nodes {
		tn.e.Lock()
		if !skip[i] && tn.e.core.snapIndex > 0 {
			compacted = true
		}
		tn.e.Unlock()
	}
	if !compacted {
		t.Fatal("majority never compacted; snapshot path not exercised")
	}

	c.net.Heal()
	c.waitCommitted(t, txs, nil)
	if got := c.nodes[lagger].e.Counters()["raft.snapshot_installs"]; got == 0 {
		t.Fatal("lagger rejoined without installing a snapshot")
	}
	// Byte-identical convergence, block by block.
	deadline := time.Now().Add(10 * time.Second)
	for c.nodes[lagger].chain.Height() < c.nodes[0].chain.Height() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	h0 := c.nodes[0].chain.Height()
	for h := uint64(1); h <= h0; h++ {
		a, _ := c.nodes[0].chain.GetBlock(h)
		b, ok := c.nodes[lagger].chain.GetBlock(h)
		if !ok {
			t.Fatalf("lagger missing block %d after rejoin", h)
		}
		if a.Hash() != b.Hash() {
			t.Fatalf("lagger block %d differs after snapshot rejoin", h)
		}
	}
}

// TestLeaseReadSafety checks the lease-read guarantee: a live leader
// with majority acks serves lease reads, followers redirect, and a
// deposed (partitioned) leader's lease expires — it must redirect, not
// serve stale reads, even while it still believes it leads.
func TestLeaseReadSafety(t *testing.T) {
	c := newTestCluster(t, 3, fastOptions())
	l := c.waitLeader(t, nil)
	// Let a heartbeat round collect majority acks.
	deadline := time.Now().Add(5 * time.Second)
	for !c.nodes[l].e.LeaseRead() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !c.nodes[l].e.LeaseRead() {
		t.Fatal("leader with live majority never acquired a lease")
	}
	for i, tn := range c.nodes {
		if i != l && tn.e.LeaseRead() {
			t.Fatalf("follower %d claimed a lease read", i)
		}
	}
	if got := c.nodes[l].e.Counters()["raft.lease_reads"]; got == 0 {
		t.Fatal("lease reads not counted")
	}
	if got := c.nodes[0].e.Counters()["raft.read_redirects"]; got == 0 {
		if got = c.nodes[(l+1)%3].e.Counters()["raft.read_redirects"]; got == 0 {
			t.Fatal("redirects not counted")
		}
	}

	// Depose the leader by partitioning it away; its lease must lapse
	// before a successor can win (lease ≤ ElectionTimeout/2).
	c.net.PartitionGroups([][]simnet.NodeID{{simnet.NodeID(l)}})
	time.Sleep(fastOptions().ElectionTimeout / 2)
	if c.nodes[l].e.LeaseRead() {
		t.Fatal("partitioned leader served a lease read past its lease")
	}
	// The majority side elects a successor that can serve lease reads.
	skip := map[int]bool{l: true}
	nl := c.waitLeader(t, skip)
	deadline = time.Now().Add(5 * time.Second)
	for !c.nodes[nl].e.LeaseRead() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !c.nodes[nl].e.LeaseRead() {
		t.Fatal("successor leader never acquired a lease")
	}
}

// TestSubTickBatchTimeout pins the satellite decoupling BatchTimeout
// from tick granularity: with a deliberately huge heartbeat, a partial
// batch must still commit in ~BatchTimeout via the pool-notify path and
// the sub-tick timer, not a full tick later.
func TestSubTickBatchTimeout(t *testing.T) {
	opts := DefaultOptions()
	opts.ElectionTimeout = 300 * time.Millisecond
	opts.Heartbeat = 120 * time.Millisecond // tick floor the event path must beat
	opts.BatchTimeout = 5 * time.Millisecond
	c := newTestCluster(t, 3, opts)
	l := c.waitLeader(t, nil)

	for i := 0; i < 3; i++ {
		tx := c.submit(1000+i, nil)
		start := time.Now()
		deadline := start.Add(10 * time.Second)
		for {
			if _, ok := c.nodes[l].chain.Receipt(tx.Hash()); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("tx %d did not commit", i)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if lat := time.Since(start); lat > opts.Heartbeat/2 {
			t.Fatalf("tx %d commit took %v — quantized to the %v tick, not the %v batch timeout",
				i, lat, opts.Heartbeat, opts.BatchTimeout)
		}
	}
}

// TestRejectionHintLowersStaleMatch pins the crash-recovery backoff
// rule: a follower that loses its unsynced log tail in a kill comes back
// with a log shorter than the match index it acknowledged in its
// previous life. Its rejection hint must pull both nextIndex AND the
// stale match down — flooring the backoff at the old match would resend
// the same unappendable PrevIndex forever and wedge the group's commit
// index (matchIndex is only monotone for followers with stable storage).
func TestRejectionHintLowersStaleMatch(t *testing.T) {
	c := newTestCluster(t, 2, fastOptions())
	l := c.waitLeader(t, nil)
	e := c.nodes[l].e
	peer := simnet.NodeID(1 - l)
	e.Lock()
	e.core.log = make([]Entry, 10)
	for i := range e.core.log {
		e.core.log[i] = Entry{Term: e.core.term}
	}
	e.core.match[peer] = 9
	e.core.next[peer] = 10
	defer e.Unlock()
	// The follower rejects with a hint at its new, shorter log end.
	e.core.onAppendResp(time.Now(), peer, &AppendResp{Term: e.core.term, OK: false, Match: 3})
	if e.core.match[peer] > 3 {
		t.Fatalf("stale match survived the rejection hint: match=%d, hint was 3", e.core.match[peer])
	}
}

// TestSaveMetaRecord pins the hard-state record to the key and bytes
// restoreMeta reads back after a kill — term, vote, base flag, applied
// index, its term and the chain height, little-endian, under
// "meta:raft:hard", as LSM directories written before hold it — and
// holds a save to one allocation, the store's record: the record is
// built in the core's own array.
func TestSaveMetaRecord(t *testing.T) {
	store := kvstore.NewMem()
	ctx := consensus.Context{Self: 1, Peers: []simnet.NodeID{0, 1, 2}, Chain: schedtest.Chain(t, nil), Meta: store}
	c := NewCore(ctx, fastOptions(), time.Unix(0, 0))
	c.term, c.votedFor = 7, 2
	c.rebase(41, 6, 40, types.Hash{})
	if err := c.saveMeta(); err != nil {
		t.Fatal(err)
	}
	const want = "0700000000000000" + "0200000000000000" + "01" + "2900000000000000" + "0600000000000000" + "2800000000000000"
	if rec, ok, err := store.Get([]byte("meta:raft:hard")); err != nil || !ok || hex.EncodeToString(rec) != want {
		t.Fatalf("meta record %x (%v, %v), want %s", rec, ok, err, want)
	}
	if n := testing.AllocsPerRun(100, func() { c.saveMeta() }); n != 1 {
		t.Errorf("saveMeta over Mem: %v allocations, want 1 (the store's record)", n)
	}
	r := NewCore(ctx, fastOptions(), time.Unix(0, 0))
	if r.term != 7 || r.votedFor != 2 || !r.baseSet || r.applied != 41 || r.snapTerm != 6 || r.appliedHeight != 40 {
		t.Fatalf("restored term %d vote %d base %v applied %d (term %d) height %d",
			r.term, r.votedFor, r.baseSet, r.applied, r.snapTerm, r.appliedHeight)
	}
}

// outbox is a Net that keeps what a core sends.
type outbox []simnet.Message

func (o *outbox) Send(to simnet.NodeID, typ string, payload any) bool {
	*o = append(*o, simnet.Message{To: to, Type: typ, Payload: payload})
	return true
}
func (o *outbox) Broadcast(typ string, payload any) { o.Send(-1, typ, payload) }

// TestMetaWriteFailureWithholdsVote: Raft keeps term and vote on stable
// storage before it answers (Fig. 2). Over a store whose every Put
// fails, a replica asked for its vote refuses it, and at its election
// deadline it solicits no votes; each failed write, the adopted term's
// included, is counted in raft.meta_failures. Over a working store the
// same steps grant the vote and broadcast the RequestVote.
func TestMetaWriteFailureWithholdsVote(t *testing.T) {
	for _, tc := range []struct {
		name     string
		store    kvstore.Store
		failures uint64 // term adoption, vote, candidacy
	}{
		{"working", kvstore.NewMem(), 0},
		{"failing", kvstore.NewMemCapped(1), 3}, // every record is over the cap
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := &outbox{}
			opts := fastOptions()
			now := time.Unix(100, 0)
			ctx := consensus.Context{Self: 1, Endpoint: out, Peers: []simnet.NodeID{0, 1, 2}, Chain: schedtest.Chain(t, nil), Meta: tc.store}
			c := NewCore(ctx, opts, now)
			c.Step(now, simnet.Message{From: 0, Type: MsgRequestVote, Payload: &RequestVote{Term: 1}})
			v, _ := (*out)[len(*out)-1].Payload.(*Vote)
			if v == nil || v.Granted != (tc.failures == 0) {
				t.Fatalf("answer to RequestVote = %+v, want granted %v", (*out)[len(*out)-1], tc.failures == 0)
			}
			*out = (*out)[:0]
			c.Step(now.Add(3*opts.ElectionTimeout), simnet.Message{}) // past any deadline
			solicited := len(*out) > 0 && (*out)[0].Type == MsgRequestVote
			if solicited != (tc.failures == 0) {
				t.Fatalf("at the election deadline sent %v, want a RequestVote broadcast %v", *out, tc.failures == 0)
			}
			if got := c.Counters()["raft.meta_failures"]; got != tc.failures {
				t.Fatalf("raft.meta_failures = %d, want %d", got, tc.failures)
			}
		})
	}
}

// TestWithheldBatchAllocatesNothing: a leader holding a partial batch
// back until BatchTimeout picks it again on every wake. The pick goes
// into the core's scratch, so a wake that appends nothing allocates
// nothing; only a batch that enters the log is copied.
func TestWithheldBatchAllocatesNothing(t *testing.T) {
	pool := txpool.New(0)
	for i := 0; i < 3; i++ {
		pool.Add(&types.Transaction{Nonce: uint64(i), Method: "m"})
	}
	now := time.Unix(100, 0)
	ctx := consensus.Context{Self: 0, Peers: []simnet.NodeID{0, 1, 2}, Chain: schedtest.Chain(t, nil), Pool: pool}
	c := NewCore(ctx, fastOptions(), now)
	c.role, c.lastProposal = leader, now
	if c.propose(now) || c.batchDue.IsZero() {
		t.Fatal("a partial batch before its timeout was not withheld")
	}
	if n := testing.AllocsPerRun(100, func() { c.propose(now) }); n != 0 {
		t.Errorf("a wake that withholds the batch: %v allocations, want 0", n)
	}
	if !c.propose(now.Add(time.Second)) || len(c.log) != 1 || len(c.log[0].Txs) != 3 {
		t.Fatal("the batch due at its timeout did not enter the log")
	}
	if &c.log[0].Txs[0] == &c.pick[:1][0] {
		t.Fatal("the log entry shares the pick scratch")
	}
}
