package sharding

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/raft"
	"blockbench/internal/consensus/schedtest"
	"blockbench/internal/simnet"
	"blockbench/internal/types"
)

// The tests in this file are rows over internal/consensus/schedtest: gateway
// cores, each with its real Raft core inside, driven directly.

type event = schedtest.Row

const (
	wake   = schedtest.Wake   // the nodes' timers fire (or their outbound queues signal)
	recv   = schedtest.Recv   // the nodes receive what is in flight to them, in send order
	drop   = schedtest.Drop   // what is in flight to the nodes is lost
	flow   = schedtest.Flow   // everything in flight is delivered, and what that sends, until the wire is quiet
	crash  = schedtest.Crash  // the nodes die: they are never stepped again, and mail to them is lost
	inject = schedtest.Inject // Msg is handed to the node as if the wire had carried it
	do     = schedtest.Do     // Do runs: a submission or a check
)

// sim is the harness with the typed gateway cores it steps.
type sim struct {
	*schedtest.Sim
	t     *testing.T
	cores []*core
}

func newSim(t *testing.T, nodes, shards int) *sim {
	opts := DefaultOptions()
	opts.Shards = shards
	s := &sim{t: t, cores: make([]*core, nodes)}
	s.Sim = schedtest.New(t, nodes, func(ctx consensus.Context, now time.Time) consensus.Step {
		s.cores[ctx.Self] = newCore(ctx, opts, now)
		return s.cores[ctx.Self].step
	}, "ycsb", "smallbank")
	return s
}

// submit is the step in which tx reaches node i through SubmitTx (either
// path): what Engine.SubmitTx does, minus the lock and the clock.
func (s *sim) submit(i int, tx *types.Transaction) func() {
	return func() {
		c := s.cores[i]
		if shards := TouchedShards(c.part, tx); len(shards) == 1 {
			if !c.outbound.Add(tx) {
				s.t.Fatalf("row %d: outbound queue refused the transaction", s.Row)
			}
		} else if err := c.submit(s.Now, tx, shards); err != nil {
			s.t.Fatalf("row %d: submit: %v", s.Row, err)
		} else {
			s.Wakes[i] = c.settle(s.Now)
		}
	}
}

// elected is the schedule prefix every test starts with: each group's
// chosen leader times out (any deadline is < 2×ElectionTimeout), wins,
// and its first heartbeat is acknowledged.
func (s *sim) elected(leaders ...int) []event {
	et := raft.DefaultOptions().ElectionTimeout
	return []event{
		{At: 2 * et, Op: wake, Nodes: leaders},
		{Op: flow},
		{Op: do, Do: func() {
			for i, c := range s.cores {
				if c.replica.IsLeader() != slices.Contains(leaders, i) {
					s.t.Fatalf("after the election rows node %d: leader=%v", i, c.replica.IsLeader())
				}
			}
		}},
	}
}

// inFlight lists the (type, from, to) of what is on the wire of a type.
func (s *sim) inFlight(typ string) []string {
	var out []string
	for _, m := range s.Flight {
		if m.Type == typ {
			out = append(out, fmt.Sprintf("%d>%d", m.From, m.To))
		}
	}
	return out
}

// keyIn returns the n-th key of a fixed sequence that p places on shard.
func keyIn(p HashPartitioner, shard, n int) []byte {
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("acct-%d", i))
		if p.Shard(k) == shard {
			if n == 0 {
				return k
			}
			n--
		}
	}
}

// payment is a smallbank transfer between two accounts: cross-shard when
// they live on different shards.
func payment(nonce uint64, from, to []byte) *types.Transaction {
	return &types.Transaction{Nonce: nonce, Contract: "smallbank", Method: "sendPayment",
		Args: [][]byte{from, to, types.U64Bytes(1)}, GasLimit: 100_000}
}

// write is a ycsb write of one key: always single-shard.
func write(nonce uint64, key []byte) *types.Transaction {
	return &types.Transaction{Nonce: nonce, Contract: "ycsb", Method: "write",
		Args: [][]byte{key, []byte("v")}, GasLimit: 100_000}
}

// engineOf wraps a core in its shell, never started, to reach the Router
// methods a node calls.
func (s *sim) engineOf(i int) *Engine {
	return &Engine{Runner: consensus.NewRunner(s.cores[i].step, nil), core: s.cores[i]}
}

// accounted fails unless every coordination node i opened is resolved or
// still pending — and, with none pending, commits + aborts == txs.
func (s *sim) accounted(i int) {
	s.t.Helper()
	c := s.cores[i]
	if c.xCommits+c.xAborts+uint64(len(c.coord)) != c.xTxs {
		s.t.Fatalf("row %d: node %d: commits %d + aborts %d + pending %d != txs %d",
			s.Row, i, c.xCommits, c.xAborts, len(c.coord), c.xTxs)
	}
}

// TestScheduleHappyPath: six nodes, three shards of two; node 5 (a
// follower of shard 2) coordinates a payment between shards 0 and 1.
// Prepare reaches all four members, one vote per shard comes back (only
// leaders vote), the decision admits the transaction into all four
// pools, both groups order it, both leaders notify, and node 5 surfaces
// the commit to its clients exactly once.
func TestScheduleHappyPath(t *testing.T) {
	s := newSim(t, 6, 3)
	p := s.cores[0].part
	tx := payment(1, keyIn(p, 0, 0), keyIn(p, 1, 0))
	id := tx.Hash()
	s.Run(s.elected(0, 2, 4))
	s.Run([]event{
		// An idle gateway sleeps as long as its replica: a follower until
		// its election deadline, a leader until its next heartbeat — not
		// until now + forwardInterval.
		{Op: wake, Nodes: []int{1, 5}},
		{Op: do, Do: func() {
			for _, i := range []int{0, 1, 5} {
				c := s.cores[i]
				if s.Wakes[i] != c.replicaWake || !s.Wakes[i].After(s.Now.Add(forwardInterval)) {
					t.Fatalf("idle node %d asked to be woken %v from now; its replica asked for %v",
						i, s.Wakes[i].Sub(s.Now), c.replicaWake.Sub(s.Now))
				}
			}
		}},
		{Op: do, Do: s.submit(5, tx)},
		{Op: do, Do: func() {
			if got := s.inFlight(MsgPrepare); !slices.Equal(got, []string{"5>0", "5>1", "5>2", "5>3"}) {
				t.Fatalf("prepares in flight: %v", got)
			}
			if want := s.Now.Add(prepareTimeout); !s.Wakes[5].Equal(want) {
				t.Fatalf("coordinator asked to be woken at %v, want the phase-one deadline %v", s.Wakes[5], want)
			}
		}},
		{Op: recv, Nodes: []int{0, 1, 2, 3}},
		{Op: do, Do: func() {
			if got := s.inFlight(MsgVote); !slices.Equal(got, []string{"0>5", "2>5"}) {
				t.Fatalf("votes in flight: %v (one per shard, from its leader)", got)
			}
		}},
		{Op: recv, Nodes: []int{5}},
		{Op: do, Do: func() {
			c := s.cores[5]
			if c.xCommits != 1 || len(c.coord) != 0 || len(c.awaiting[id]) != 2 {
				t.Fatalf("after both votes: commits=%d pending=%d awaiting=%v", c.xCommits, len(c.coord), c.awaiting[id])
			}
			if got := s.inFlight(MsgDecide); !slices.Equal(got, []string{"5>0", "5>1", "5>2", "5>3"}) {
				t.Fatalf("decisions in flight: %v", got)
			}
		}},
		{Op: recv, Nodes: []int{0, 1, 2, 3}},
		{Op: do, Do: func() {
			for i := 0; i < 4; i++ {
				if s.Pools[i].Len() != 1 || len(s.cores[i].locks) != 0 || s.cores[i].notice[id] != 5 {
					t.Fatalf("node %d after the decision: pool=%d locks=%d notice=%v",
						i, s.Pools[i].Len(), len(s.cores[i].locks), s.cores[i].notice)
				}
			}
			if len(s.inFlight(raft.MsgAppend)) == 0 {
				t.Fatal("the leaders did not propose in the step that admitted the transaction")
			}
		}},
		{Op: flow},
	})
	for i := 0; i < 4; i++ {
		if _, ok := s.Chains[i].Receipt(id); !ok {
			t.Fatalf("node %d never applied the transaction", i)
		}
		if c := s.cores[i]; len(c.notice) != 0 || c.replica.IsLeader() != (len(c.owed) == 0) {
			t.Fatalf("node %d: notice=%d owed=%d leader=%v", i, len(c.notice), len(c.owed), c.replica.IsLeader())
		}
	}
	e := s.engineOf(5)
	if got := e.DrainRemoteCommits(); !slices.Equal(got, []types.Hash{id}) {
		t.Fatalf("first drain: %v", got)
	}
	// A late duplicate notice (the successor of a leader that did send)
	// surfaces nothing twice.
	s.Run([]event{{Op: inject, Nodes: []int{5}, Msg: simnet.Message{From: 1, To: 5, Type: MsgNotice,
		Payload: &CommitNotice{TxID: id, Shard: 0}}}})
	if got := e.DrainRemoteCommits(); len(got) != 0 || !e.CommittedElsewhere(id) {
		t.Fatalf("second drain: %v, committed elsewhere: %v", got, e.CommittedElsewhere(id))
	}
	s.accounted(5)
}

// TestScheduleLeaderlessShard: shard 1 has no leader, so nobody there
// votes. The coordinator (node 0, leader of shard 0, which votes for
// itself) hears silence until prepareTimeout, aborts, backs off at least
// attempt × retryBackoff, and commits once shard 1 has elected. A second
// transaction, submitted while shard 1 is leaderless for good, is
// abandoned after maxAttempts — and commits + aborts == txs.
func TestScheduleLeaderlessShard(t *testing.T) {
	s := newSim(t, 4, 2)
	p := s.cores[0].part
	tx := payment(1, keyIn(p, 0, 0), keyIn(p, 1, 0))
	s.Watch = func() { s.accounted(0) }
	s.Run(s.elected(0))
	var opened, retryAt time.Time
	s.Run([]event{
		{Op: do, Do: s.submit(0, tx)},
		{Op: do, Do: func() { opened = s.Now }},
		{Op: flow}, // node 1's prepare, node 2 and 3's silence
	})
	c := s.cores[0]
	cs := c.coord[tx.Hash()]
	if !slices.Equal(cs.votes, []int{0}) || c.xRetries != 0 {
		t.Fatalf("phase one: votes %v retries %d", cs.votes, c.xRetries)
	}
	s.Run([]event{
		{At: opened.Add(prepareTimeout - time.Millisecond).Sub(s.T0), Op: wake, Nodes: []int{0}},
		{Op: do, Do: func() {
			if c.xRetries != 0 || cs.backoff {
				t.Fatal("aborted before prepareTimeout")
			}
		}},
		{At: opened.Add(prepareTimeout).Sub(s.T0), Op: wake, Nodes: []int{0}},
		{Op: do, Do: func() {
			if c.xRetries != 1 || !cs.backoff || cs.attempt != 2 {
				t.Fatalf("at prepareTimeout: retries=%d backoff=%v attempt=%d", c.xRetries, cs.backoff, cs.attempt)
			}
			if wait := cs.due.Sub(s.Now); wait < 2*retryBackoff || wait >= 3*retryBackoff {
				t.Fatalf("attempt 2 backs off %v, want attempt × retryBackoff plus under one unit of jitter", wait)
			}
			if !s.Wakes[0].Equal(c.replicaWake) && !s.Wakes[0].Equal(cs.due) {
				t.Fatalf("coordinator's wake %v is neither its replica's nor the retry", s.Wakes[0])
			}
			retryAt = cs.due
		}},
		{Op: flow}, // the abort decision releases node 0's own lock
		// Shard 1 elects node 2 in the meantime.
		{Op: wake, Nodes: []int{2}},
		{Op: flow},
		{Op: do, Do: func() {
			if !s.cores[2].replica.IsLeader() || len(c.locks) != 0 {
				t.Fatalf("shard 1 leader=%v, node 0 locks=%d", s.cores[2].replica.IsLeader(), len(c.locks))
			}
		}},
	})
	s.Run([]event{
		{At: retryAt.Add(-time.Microsecond).Sub(s.T0), Op: wake, Nodes: []int{0}},
		{Op: do, Do: func() {
			if !cs.backoff {
				t.Fatal("re-prepared before the backoff ran out")
			}
		}},
		{At: retryAt.Sub(s.T0), Op: wake, Nodes: []int{0}},
		{Op: flow},
	})
	if c.xCommits != 1 || c.xRetries != 1 || len(c.coord) != 0 {
		t.Fatalf("after the retry: commits=%d retries=%d pending=%d", c.xCommits, c.xRetries, len(c.coord))
	}

	// Shard 1 loses its leader for good.
	tx2 := payment(2, keyIn(p, 0, 1), keyIn(p, 1, 1))
	s.Run([]event{{Op: crash, Nodes: []int{2}}, {Op: do, Do: s.submit(0, tx2)}})
	for round := 0; len(c.coord) > 0; round++ {
		if round > 2*maxAttempts {
			t.Fatalf("coordination still pending after %d deadlines", round)
		}
		// Each wake lands exactly on the instant the core asked for.
		s.Run([]event{{At: c.coordDue.Sub(s.T0), Op: wake, Nodes: []int{0}}, {Op: flow}})
	}
	if c.xTxs != 2 || c.xCommits != 1 || c.xAborts != 1 || c.xRetries != 1+maxAttempts-1 {
		t.Fatalf("txs=%d commits=%d aborts=%d retries=%d", c.xTxs, c.xCommits, c.xAborts, c.xRetries)
	}
	if len(c.locks) != 0 || !c.coordDue.IsZero() {
		t.Fatalf("abandoned transaction left %d locks, coordDue %v", len(c.locks), c.coordDue)
	}
}

// lockOwners collects, over every live node's lock table, who holds key.
func (s *sim) lockOwners(key []byte) []types.Hash {
	var owners []types.Hash
	for i, c := range s.cores {
		if ent, held := c.locks[string(key)]; held && !s.Down[i] && s.Now.Before(ent.expires) {
			owners = append(owners, ent.owner)
		}
	}
	return owners
}

// TestScheduleContention: nodes 4 and 2 coordinate two payments out of
// the same shard-0 account. Shard 0's leader locks the account for
// whichever prepare it sees first and refuses the other, which aborts,
// backs off and commits on its retry; at no row do two owners hold the
// account.
func TestScheduleContention(t *testing.T) {
	s := newSim(t, 6, 3)
	p := s.cores[0].part
	hot := keyIn(p, 0, 0)
	first, second := payment(1, hot, keyIn(p, 1, 0)), payment(2, hot, keyIn(p, 1, 1))
	s.Watch = func() {
		if owners := s.lockOwners(hot); len(owners) > 1 {
			t.Fatalf("row %d: the contended account has %d owners", s.Row, len(owners))
		}
		s.accounted(4)
		s.accounted(2)
	}
	s.Run(s.elected(0, 2, 4))
	s.Run([]event{
		{Op: do, Do: s.submit(4, first)},
		{Op: do, Do: s.submit(2, second)}, // node 2 leads shard 1: it votes for itself at once
		{Op: recv, Nodes: []int{0}},
		{Op: do, Do: func() {
			if owners := s.lockOwners(hot); len(owners) != 1 || owners[0] != first.Hash() {
				t.Fatalf("owners after both prepares: %v", owners)
			}
		}},
		{Op: recv, Nodes: []int{1, 2, 3}},
		{Op: recv, Nodes: []int{2, 4}}, // the votes: yes+yes to 4, a refusal to 2
	})
	a, b := s.cores[4], s.cores[2]
	if a.xCommits != 1 || b.xCommits != 0 || b.xRetries != 1 {
		t.Fatalf("after the votes: first commits=%d; second commits=%d retries=%d", a.xCommits, b.xCommits, b.xRetries)
	}
	s.Run([]event{
		{Op: flow}, // the commit releases the account; both groups order the first payment
		{At: b.coordDue.Sub(s.T0), Op: wake, Nodes: []int{2}},
		{Op: flow},
	})
	if b.xCommits != 1 || b.xAborts != 0 || b.xRetries != 1 {
		t.Fatalf("second payment: commits=%d aborts=%d retries=%d", b.xCommits, b.xAborts, b.xRetries)
	}
	for _, tx := range []*types.Transaction{first, second} {
		for _, i := range []int{0, 1, 2, 3} {
			if _, ok := s.Chains[i].Receipt(tx.Hash()); !ok {
				t.Fatalf("node %d never applied payment %d", i, tx.Nonce)
			}
		}
	}
	if got := s.engineOf(4).DrainRemoteCommits(); !slices.Equal(got, []types.Hash{first.Hash()}) {
		t.Fatalf("node 4 (outside both shards) surfaces %v", got)
	}
}

// TestScheduleVanishedCoordinator answers the Lotus question for the
// soft-lock design: node 4 prepares and dies before deciding. Its lock
// on the account refuses everyone else until lockTTL — nobody else may
// release it — and is then swept by the leader that granted it, after
// which the next prepare succeeds. Locks never gate state changes (only
// the shard's ordered commit path does), so expiry cannot un-commit
// anything: the price of a dead coordinator is lockTTL of unavailability
// for the keys it held.
func TestScheduleVanishedCoordinator(t *testing.T) {
	s := newSim(t, 6, 3)
	p := s.cores[0].part
	hot := keyIn(p, 0, 0)
	orphan, next := payment(1, hot, keyIn(p, 1, 0)), payment(2, hot, keyIn(p, 1, 1))
	s.Watch = func() { s.accounted(2) }
	s.Run(s.elected(0, 2, 4))
	var locked time.Time
	s.Run([]event{
		{Op: do, Do: s.submit(4, orphan)},
		{Op: recv, Nodes: []int{0, 1, 2, 3}},
		{Op: do, Do: func() { locked = s.Now }},
		{Op: crash, Nodes: []int{4}}, // the votes fall on a dead node
		{Op: drop, Nodes: []int{4}},
		{At: 2*raft.DefaultOptions().ElectionTimeout + 10*time.Millisecond, Op: do, Do: s.submit(2, next)},
		{Op: flow},
	})
	l0, b := s.cores[0], s.cores[2]
	if b.xRetries != 1 || b.xCommits != 0 || len(s.lockOwners(hot)) != 1 || s.lockOwners(hot)[0] != orphan.Hash() {
		t.Fatalf("while the orphan lock is live: retries=%d commits=%d owners=%v", b.xRetries, b.xCommits, s.lockOwners(hot))
	}
	if l0.sweepAt.IsZero() || l0.sweepAt.After(locked.Add(lockTTL)) {
		t.Fatalf("leader's sweep is set for %v; the lock expires at %v", l0.sweepAt, locked.Add(lockTTL))
	}
	s.Run([]event{
		// One more attempt a millisecond before expiry is refused too.
		{At: locked.Add(lockTTL - time.Millisecond).Sub(s.T0), Op: wake, Nodes: []int{2}},
		{Op: flow},
		{Op: do, Do: func() {
			if b.xRetries != 2 || len(l0.locks) != 1 {
				t.Fatalf("just before lockTTL: retries=%d, leader holds %d locks", b.xRetries, len(l0.locks))
			}
		}},
		{At: locked.Add(lockTTL).Sub(s.T0), Op: wake, Nodes: []int{0}},
		{Op: do, Do: func() {
			if len(l0.locks) != 0 || len(l0.txLocks) != 0 || !l0.sweepAt.IsZero() {
				t.Fatalf("after the sweep: locks=%d txLocks=%d sweepAt=%v", len(l0.locks), len(l0.txLocks), l0.sweepAt)
			}
		}},
		{Op: flow},
	})
	s.Run([]event{{At: b.coordDue.Sub(s.T0), Op: wake, Nodes: []int{2}}, {Op: flow}})
	if b.xCommits != 1 || b.xAborts != 0 {
		t.Fatalf("after the sweep the next prepare should succeed: commits=%d aborts=%d retries=%d",
			b.xCommits, b.xAborts, b.xRetries)
	}
}

// TestScheduleNoticeFailover: six nodes, two shards of three. Node 0
// forwards a shard-1 write; shard 1's leader (node 3) applies it and
// dies with its notice lost. Its followers applied too and kept the
// record: node 4 wins the election and sends the notice in that same
// step; node 5 drops its copy once noticeRetain has passed.
func TestScheduleNoticeFailover(t *testing.T) {
	s := newSim(t, 6, 2)
	tx := write(1, keyIn(s.cores[0].part, 1, 0))
	id := tx.Hash()
	et := raft.DefaultOptions().ElectionTimeout
	s.Run(s.elected(0, 3))
	var applied time.Time
	s.Run([]event{
		{Op: do, Do: s.submit(0, tx)},
		{Op: wake, Nodes: []int{0}}, // the outbound queue's signal: an idle gateway flushes at once
		{Op: do, Do: func() {
			if got := s.inFlight(MsgForward); !slices.Equal(got, []string{"0>3", "0>4", "0>5"}) {
				t.Fatalf("forwards in flight: %v", got)
			}
			if c := s.cores[0]; !slices.Equal(c.awaiting[id], []int{1}) || c.fastpath != 1 {
				t.Fatalf("gateway after the flush: awaiting=%v fastpath=%d", c.awaiting[id], c.fastpath)
			}
		}},
		{Op: recv, Nodes: []int{3, 4, 5}}, // admitted everywhere; the leader proposes in the same step
		{Op: recv, Nodes: []int{4, 5}},    // append
		{Op: recv, Nodes: []int{3}},       // acks: commit, apply, notice, commit index to followers
		{Op: do, Do: func() {
			applied = s.Now
			if got := s.inFlight(MsgNotice); !slices.Equal(got, []string{"3>0"}) {
				t.Fatalf("notices in flight: %v (the leader's, and only its)", got)
			}
		}},
		{Op: drop, Nodes: []int{0}},    // the notice is lost...
		{Op: recv, Nodes: []int{4, 5}}, // ...the followers apply...
		{Op: crash, Nodes: []int{3}},   // ...and the leader dies.
		{Op: flow},
		{Op: do, Do: func() {
			for _, i := range []int{4, 5} {
				if c := s.cores[i]; len(c.owed) != 1 || len(c.notice) != 0 {
					t.Fatalf("follower %d: owed=%d notice=%d", i, len(c.owed), len(c.notice))
				}
			}
			if len(s.cores[0].remoteQ) != 0 {
				t.Fatal("gateway surfaced a commit nobody told it about")
			}
		}},
		{At: 5 * et, Op: wake, Nodes: []int{4}}, // past everyone's sticky-voter window
		{Op: recv, Nodes: []int{5}},
		{Op: recv, Nodes: []int{4}}, // the vote: node 4 leads, and sends what it owes
		{Op: do, Do: func() {
			if got := s.inFlight(MsgNotice); !s.cores[4].replica.IsLeader() || !slices.Equal(got, []string{"4>0"}) {
				t.Fatalf("successor leads=%v, notices in flight: %v", s.cores[4].replica.IsLeader(), got)
			}
		}},
		{Op: flow},
	})
	if c := s.cores[0]; !slices.Equal(c.remoteQ, []types.Hash{id}) || len(c.awaiting) != 0 {
		t.Fatalf("gateway: remoteQ=%v awaiting=%d", c.remoteQ, len(c.awaiting))
	}
	if n4, n5 := len(s.cores[4].owed), len(s.cores[5].owed); n4 != 0 || n5 != 1 {
		t.Fatalf("owed after failover: successor %d, follower %d", n4, n5)
	}
	s.Run([]event{
		{At: applied.Add(noticeRetain).Sub(s.T0), Op: wake, Nodes: []int{4}}, // a heartbeat
		{Op: flow},
		{Op: do, Do: func() {
			if len(s.cores[5].owed) != 1 {
				t.Fatal("follower dropped its record before noticeRetain had passed")
			}
		}},
		{At: applied.Add(noticeRetain + raft.DefaultOptions().Heartbeat).Sub(s.T0), Op: wake, Nodes: []int{4}},
		{Op: flow}, // the next heartbeat
	})
	if len(s.cores[5].owed) != 0 {
		t.Fatal("follower kept its record past noticeRetain")
	}
}

// TestScheduleIgnored: a vote for an earlier attempt, a second vote from
// a shard that already voted (a leadership handover produces two) and
// corrupt protocol messages change nothing.
func TestScheduleIgnored(t *testing.T) {
	s := newSim(t, 6, 3)
	p := s.cores[0].part
	tx := payment(1, keyIn(p, 0, 0), keyIn(p, 1, 0))
	id := tx.Hash()
	vote := func(from, shard, attempt int, ok, corrupt bool) event {
		return event{Op: inject, Nodes: []int{4}, Msg: simnet.Message{From: simnet.NodeID(from), To: 4,
			Type: MsgVote, Corrupt: corrupt, Payload: &Vote{TxID: id, Shard: shard, Attempt: attempt, OK: ok}}}
	}
	s.Run(s.elected(0, 2, 4))
	c := s.cores[4]
	s.Run([]event{
		{Op: do, Do: s.submit(4, tx)},
		{Op: drop, Nodes: []int{0, 1, 2, 3}}, // every prepare is lost: attempt 1 times out
		{At: 2*raft.DefaultOptions().ElectionTimeout + prepareTimeout, Op: wake, Nodes: []int{4}},
		{Op: drop, Nodes: []int{0, 1, 2, 3, 5}},
	})
	cs := c.coord[id]
	s.Run([]event{
		{At: cs.due.Sub(s.T0), Op: wake, Nodes: []int{4}}, // attempt 2 opens
		{Op: drop, Nodes: []int{0, 1, 2, 3, 5}},
		vote(0, 0, 1, true, false), // attempt 1's vote, late
		{Op: do, Do: func() {
			if cs.attempt != 2 || cs.backoff || len(cs.votes) != 0 {
				t.Fatalf("a stale vote counted: attempt=%d backoff=%v votes=%v", cs.attempt, cs.backoff, cs.votes)
			}
		}},
		vote(0, 0, 2, false, true), // a corrupt refusal
		{Op: do, Do: func() {
			if cs.backoff || c.xRetries != 1 {
				t.Fatalf("a corrupt refusal aborted the attempt: retries=%d", c.xRetries)
			}
		}},
		vote(0, 0, 2, true, false),
		vote(1, 0, 2, true, false), // shard 0 again, from the member that took over
		{Op: do, Do: func() {
			if !slices.Equal(cs.votes, []int{0}) || c.xCommits != 0 {
				t.Fatalf("a duplicate vote counted: votes=%v commits=%d", cs.votes, c.xCommits)
			}
		}},
		vote(2, 1, 2, true, false),
		{Op: do, Do: func() {
			if c.xCommits != 1 || len(s.inFlight(MsgDecide)) != 4 {
				t.Fatalf("commits=%d, decisions in flight %v", c.xCommits, s.inFlight(MsgDecide))
			}
		}},
	})
	// The decision arrives corrupted at node 1 and intact at node 0.
	for i := range s.Flight {
		if s.Flight[i].To == 1 {
			s.Flight[i].Corrupt = true
		}
	}
	s.Run([]event{{Op: recv, Nodes: []int{0, 1}}})
	if s.Pools[0].Len() != 1 || s.Pools[1].Len() != 0 || len(s.cores[1].notice) != 0 {
		t.Fatalf("pools after the decision: node 0 holds %d, node 1 (corrupt copy) %d", s.Pools[0].Len(), s.Pools[1].Len())
	}
	s.accounted(4)
}

// TestScheduleForwardPacing: an idle gateway flushes an accepted
// transaction in the step its queue's signal causes; one accepted inside
// forwardInterval of that flush waits for the interval's end, which is
// exactly when the core asks to be woken.
func TestScheduleForwardPacing(t *testing.T) {
	s := newSim(t, 4, 2)
	p := s.cores[1].part
	s.Run(s.elected(0, 2))
	var flushed time.Time
	s.Run([]event{
		{Op: do, Do: s.submit(1, write(1, keyIn(p, 1, 0)))},
		{Op: wake, Nodes: []int{1}},
		{Op: do, Do: func() {
			flushed = s.Now
			if got := s.inFlight(MsgForward); !slices.Equal(got, []string{"1>2", "1>3"}) {
				t.Fatalf("idle gateway: forwards in flight %v", got)
			}
		}},
		{Op: flow},
		{At: 2*raft.DefaultOptions().ElectionTimeout + forwardInterval/4, Op: do, Do: s.submit(1, write(2, keyIn(p, 1, 1)))},
		{Op: wake, Nodes: []int{1}},
		{Op: do, Do: s.submit(1, write(3, keyIn(p, 0, 0)))}, // own shard
		{Op: wake, Nodes: []int{1}},
		{Op: do, Do: func() {
			if len(s.Flight) != 0 || s.cores[1].outbound.Len() != 2 {
				t.Fatalf("inside the interval: %d messages sent, %d queued", len(s.Flight), s.cores[1].outbound.Len())
			}
			if want := flushed.Add(forwardInterval); !s.Wakes[1].Equal(want) {
				t.Fatalf("busy gateway asked to be woken at %v, want the interval's end %v", s.Wakes[1], want)
			}
		}},
	})
	s.Run([]event{
		{At: s.Wakes[1].Sub(s.T0), Op: wake, Nodes: []int{1}},
		{Op: do, Do: func() {
			if got := s.inFlight(MsgForward); !slices.Equal(got, []string{"1>0", "1>2", "1>3"}) {
				t.Fatalf("at the interval's end: forwards in flight %v", got)
			}
			if s.Pools[1].Len() != 1 || s.cores[1].outbound.Len() != 0 || s.cores[1].fastpath != 3 {
				t.Fatalf("own-shard transaction: pool=%d queued=%d fastpath=%d",
					s.Pools[1].Len(), s.cores[1].outbound.Len(), s.cores[1].fastpath)
			}
		}},
		{Op: flow},
	})
	// Shard 1's leader proposed the first write at once and withheld the
	// second as a partial batch: its gateway core asks for the replica's
	// batch timeout, and a wake at that instant proposes it.
	s.Run([]event{{At: s.Wakes[2].Sub(s.T0), Op: wake, Nodes: []int{2}}, {Op: flow}})
	for _, i := range []int{0, 1} {
		if s.Chains[i].Height() != 1 {
			t.Fatalf("shard 0 member %d at height %d", i, s.Chains[i].Height())
		}
	}
	if got := s.engineOf(1).DrainRemoteCommits(); len(got) != 2 {
		t.Fatalf("gateway surfaced %d of its 2 foreign-shard commits", len(got))
	}
}

// TestScheduleSharedDeadline: node 0 coordinates four payments into
// leaderless shard 1 from the same instant, so every phase one times out
// in one wake. All four abort there and back off, each with its own draw
// of jitter; once shard 1 has elected, each retry commits at its own
// instant, and every node applies all four.
func TestScheduleSharedDeadline(t *testing.T) {
	s := newSim(t, 4, 2)
	p := s.cores[0].part
	var txs []*types.Transaction
	for k := range 4 {
		txs = append(txs, payment(uint64(k+1), keyIn(p, 0, k), keyIn(p, 1, k)))
	}
	s.Watch = func() { s.accounted(0) }
	s.Run(s.elected(0))
	c := s.cores[0]
	for _, tx := range txs {
		s.Run([]event{{Op: do, Do: s.submit(0, tx)}})
	}
	s.Run([]event{
		{Op: flow},
		{At: c.coordDue.Sub(s.T0), Op: wake, Nodes: []int{0}},
		{Op: do, Do: func() {
			if c.xRetries != 4 || len(c.coord) != 4 {
				t.Fatalf("at the shared deadline: retries=%d pending=%d, want 4 and 4", c.xRetries, len(c.coord))
			}
		}},
		{Op: flow},
		{Op: wake, Nodes: []int{2}},
		{Op: flow},
	})
	for round := 0; len(c.coord) > 0; round++ {
		if round > 4 {
			t.Fatalf("%d coordinations still pending after %d retries", len(c.coord), round)
		}
		s.Run([]event{{At: c.coordDue.Sub(s.T0), Op: wake, Nodes: []int{0}}, {Op: flow}})
	}
	// The leaders withheld what came in a partial batch; a batch timeout
	// later they propose it.
	s.Run([]event{{At: s.Now.Add(raft.DefaultOptions().BatchTimeout).Sub(s.T0), Op: wake, Nodes: []int{0, 2}}, {Op: flow}})
	if c.xCommits != 4 || c.xAborts != 0 {
		t.Fatalf("commits=%d aborts=%d, want 4 and 0", c.xCommits, c.xAborts)
	}
	for _, tx := range txs {
		for i := range s.cores {
			if _, ok := s.Chains[i].Receipt(tx.Hash()); !ok {
				t.Fatalf("node %d never applied payment %d", i, tx.Nonce)
			}
		}
	}
}

// TestSchedulesReplay: rerun on fresh sims, each table delivers and commits the same.
func TestSchedulesReplay(t *testing.T) {
	schedtest.Replay(t, TestScheduleHappyPath, TestScheduleLeaderlessShard, TestScheduleContention,
		TestScheduleVanishedCoordinator, TestScheduleNoticeFailover, TestScheduleIgnored, TestScheduleForwardPacing, TestScheduleSharedDeadline)
}
