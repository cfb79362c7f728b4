package sharding

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/consensus/raft"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/state"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// The tests in this file drive gateway cores — each with its real Raft
// core inside — directly: no Engine, no runner, no goroutine, no sleep.
// Time is a value the schedule advances, the wire is a queue the schedule
// drains, and the whole interleaving is the table (modelled on
// internal/consensus/raft/schedule_test.go).

type op int

const (
	wake   op = iota // the nodes' timers fire (or their outbound queues signal)
	recv             // the nodes receive what is in flight to them, in send order
	drop             // what is in flight to the nodes is lost
	flow             // everything in flight is delivered, and what that sends, until the wire is quiet
	crash            // the nodes die: they are never stepped again, and mail to them is lost
	submit           // tx reaches the node through SubmitTx (either path)
	inject           // msg is handed to the node as if the wire had carried it
	check            // do inspects the sim
)

// event is one row of a schedule: at time t0+at (the clock never goes
// back; 0 keeps it), op happens on each of nodes in order.
type event struct {
	at    time.Duration
	op    op
	nodes []int
	tx    *types.Transaction
	msg   simnet.Message
	do    func(s *sim)
}

// sim is n gateway cores joined by a recording consensus.Net.
type sim struct {
	t      *testing.T
	t0     time.Time
	now    time.Time
	peers  []simnet.NodeID
	cores  []*core
	chains []*ledger.Chain
	pools  []*txpool.Pool
	wakes  []time.Time      // what each node's last event asked for
	down   []bool           // crashed
	flight []simnet.Message // sent, not yet received or dropped
	row    int
	// watch, if set, runs after every row (an invariant that must hold
	// at every point of the interleaving, not just at the end).
	watch func(s *sim)
}

// wire is one node's consensus.Net: sends join the sim's flight queue.
type wire struct {
	s    *sim
	self simnet.NodeID
}

func (w wire) Send(to simnet.NodeID, typ string, payload any) bool {
	w.s.flight = append(w.s.flight, simnet.Message{From: w.self, To: to, Type: typ, Payload: payload})
	return true
}

// Broadcast reaches every node of the cluster, as simnet's does: another
// group's election traffic arrives here and must be ignored.
func (w wire) Broadcast(typ string, payload any) {
	for _, p := range w.s.peers {
		if p != w.self {
			w.Send(p, typ, payload)
		}
	}
}

func newSim(t *testing.T, nodes, shards int) *sim {
	s := &sim{t: t, t0: time.Unix(1_000_000, 0), wakes: make([]time.Time, nodes), down: make([]bool, nodes)}
	s.now = s.t0
	for i := 0; i < nodes; i++ {
		s.peers = append(s.peers, simnet.NodeID(i))
	}
	opts := DefaultOptions()
	opts.Shards = shards
	for i := 0; i < nodes; i++ {
		pool := txpool.New(0)
		store := kvstore.NewMem()
		eng, err := exec.NewNativeEngine("ycsb", "smallbank")
		if err != nil {
			t.Fatal(err)
		}
		chain, err := ledger.New(ledger.Config{
			Engine: eng,
			StateFactory: func(root types.Hash) (*state.DB, error) {
				b, err := state.NewTrieBackend(store, root, 0)
				if err != nil {
					return nil, err
				}
				return state.NewDB(b), nil
			},
			SupportsForks: true,
			OnInclude:     pool.MarkIncluded,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.pools = append(s.pools, pool)
		s.chains = append(s.chains, chain)
		s.cores = append(s.cores, newCore(consensus.Context{
			Self:     simnet.NodeID(i),
			Endpoint: wire{s, simnet.NodeID(i)},
			Chain:    chain,
			Pool:     pool,
			Peers:    s.peers,
		}, opts, s.now))
	}
	return s
}

func (s *sim) run(schedule []event) {
	s.t.Helper()
	for _, ev := range schedule {
		s.row++
		if at := s.t0.Add(ev.at); at.After(s.now) {
			s.now = at
		}
		switch ev.op {
		case recv, drop:
			s.deliver(ev.op, ev.nodes)
		case flow:
			for round := 0; len(s.flight) > 0; round++ {
				if round == 100 {
					s.t.Fatalf("row %d: the wire never went quiet", s.row)
				}
				s.deliver(recv, nil)
			}
		case check:
			ev.do(s)
		}
		for _, i := range ev.nodes {
			switch ev.op {
			case wake:
				s.wakes[i] = s.cores[i].step(s.now, consensus.Wake)
			case inject:
				s.wakes[i] = s.cores[i].step(s.now, ev.msg)
			case crash:
				s.down[i] = true
			case submit:
				// What Engine.SubmitTx does, minus the lock and the clock.
				c := s.cores[i]
				if shards := TouchedShards(c.part, ev.tx); len(shards) == 1 {
					if !c.outbound.Add(ev.tx) {
						s.t.Fatalf("row %d: outbound queue refused the transaction", s.row)
					}
				} else if err := c.submit(s.now, ev.tx, shards); err != nil {
					s.t.Fatalf("row %d: submit: %v", s.row, err)
				} else {
					s.wakes[i] = c.settle(s.now)
				}
			}
		}
		if s.watch != nil {
			s.watch(s)
		}
	}
}

// deliver hands (recv) or loses (drop) what was in flight to nodes (nil:
// everyone) when the row began, in send order; what those steps send in
// turn waits for a later row. Mail for the dead is lost either way.
func (s *sim) deliver(o op, nodes []int) {
	batch := s.flight
	s.flight = nil
	var rest []simnet.Message
	for _, m := range batch {
		switch {
		case s.down[m.To]:
		case nodes != nil && !slices.Contains(nodes, int(m.To)):
			rest = append(rest, m)
		case o == recv:
			s.wakes[m.To] = s.cores[m.To].step(s.now, m)
		}
	}
	s.flight = append(rest, s.flight...)
}

// elected is the schedule prefix every test starts with: each group's
// chosen leader times out (any deadline is < 2×ElectionTimeout), wins,
// and its first heartbeat is acknowledged.
func elected(leaders ...int) []event {
	et := raft.DefaultOptions().ElectionTimeout
	return []event{
		{at: 2 * et, op: wake, nodes: leaders},
		{op: flow},
		{op: check, do: func(s *sim) {
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
	for _, m := range s.flight {
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
			s.row, i, c.xCommits, c.xAborts, len(c.coord), c.xTxs)
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
	s.run(elected(0, 2, 4))
	s.run([]event{
		// An idle gateway sleeps as long as its replica: a follower until
		// its election deadline, a leader until its next heartbeat — not
		// until now + forwardInterval.
		{op: wake, nodes: []int{1, 5}},
		{op: check, do: func(s *sim) {
			for _, i := range []int{0, 1, 5} {
				c := s.cores[i]
				if s.wakes[i] != c.replicaWake || !s.wakes[i].After(s.now.Add(forwardInterval)) {
					t.Fatalf("idle node %d asked to be woken %v from now; its replica asked for %v",
						i, s.wakes[i].Sub(s.now), c.replicaWake.Sub(s.now))
				}
			}
		}},
		{op: submit, nodes: []int{5}, tx: tx},
		{op: check, do: func(s *sim) {
			if got := s.inFlight(MsgPrepare); !slices.Equal(got, []string{"5>0", "5>1", "5>2", "5>3"}) {
				t.Fatalf("prepares in flight: %v", got)
			}
			if want := s.now.Add(prepareTimeout); !s.wakes[5].Equal(want) {
				t.Fatalf("coordinator asked to be woken at %v, want the phase-one deadline %v", s.wakes[5], want)
			}
		}},
		{op: recv, nodes: []int{0, 1, 2, 3}},
		{op: check, do: func(s *sim) {
			if got := s.inFlight(MsgVote); !slices.Equal(got, []string{"0>5", "2>5"}) {
				t.Fatalf("votes in flight: %v (one per shard, from its leader)", got)
			}
		}},
		{op: recv, nodes: []int{5}},
		{op: check, do: func(s *sim) {
			c := s.cores[5]
			if c.xCommits != 1 || len(c.coord) != 0 || len(c.awaiting[id]) != 2 {
				t.Fatalf("after both votes: commits=%d pending=%d awaiting=%v", c.xCommits, len(c.coord), c.awaiting[id])
			}
			if got := s.inFlight(MsgDecide); !slices.Equal(got, []string{"5>0", "5>1", "5>2", "5>3"}) {
				t.Fatalf("decisions in flight: %v", got)
			}
		}},
		{op: recv, nodes: []int{0, 1, 2, 3}},
		{op: check, do: func(s *sim) {
			for i := 0; i < 4; i++ {
				if s.pools[i].Len() != 1 || len(s.cores[i].locks) != 0 || s.cores[i].notice[id] != 5 {
					t.Fatalf("node %d after the decision: pool=%d locks=%d notice=%v",
						i, s.pools[i].Len(), len(s.cores[i].locks), s.cores[i].notice)
				}
			}
			if len(s.inFlight(raft.MsgAppend)) == 0 {
				t.Fatal("the leaders did not propose in the step that admitted the transaction")
			}
		}},
		{op: flow},
	})
	for i := 0; i < 4; i++ {
		if _, ok := s.chains[i].Receipt(id); !ok {
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
	s.run([]event{{op: inject, nodes: []int{5}, msg: simnet.Message{From: 1, To: 5, Type: MsgNotice,
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
	s.watch = func(s *sim) { s.accounted(0) }
	s.run(elected(0))
	var opened, retryAt time.Time
	s.run([]event{
		{op: submit, nodes: []int{0}, tx: tx},
		{op: check, do: func(s *sim) { opened = s.now }},
		{op: flow}, // node 1's prepare, node 2 and 3's silence
	})
	c := s.cores[0]
	cs := c.coord[tx.Hash()]
	if !slices.Equal(cs.votes, []int{0}) || c.xRetries != 0 {
		t.Fatalf("phase one: votes %v retries %d", cs.votes, c.xRetries)
	}
	s.run([]event{
		{at: opened.Add(prepareTimeout - time.Millisecond).Sub(s.t0), op: wake, nodes: []int{0}},
		{op: check, do: func(s *sim) {
			if c.xRetries != 0 || cs.backoff {
				t.Fatal("aborted before prepareTimeout")
			}
		}},
		{at: opened.Add(prepareTimeout).Sub(s.t0), op: wake, nodes: []int{0}},
		{op: check, do: func(s *sim) {
			if c.xRetries != 1 || !cs.backoff || cs.attempt != 2 {
				t.Fatalf("at prepareTimeout: retries=%d backoff=%v attempt=%d", c.xRetries, cs.backoff, cs.attempt)
			}
			if wait := cs.due.Sub(s.now); wait < 2*retryBackoff || wait >= 3*retryBackoff {
				t.Fatalf("attempt 2 backs off %v, want attempt × retryBackoff plus under one unit of jitter", wait)
			}
			if !s.wakes[0].Equal(c.replicaWake) && !s.wakes[0].Equal(cs.due) {
				t.Fatalf("coordinator's wake %v is neither its replica's nor the retry", s.wakes[0])
			}
			retryAt = cs.due
		}},
		{op: flow}, // the abort decision releases node 0's own lock
		// Shard 1 elects node 2 in the meantime.
		{op: wake, nodes: []int{2}},
		{op: flow},
		{op: check, do: func(s *sim) {
			if !s.cores[2].replica.IsLeader() || len(c.locks) != 0 {
				t.Fatalf("shard 1 leader=%v, node 0 locks=%d", s.cores[2].replica.IsLeader(), len(c.locks))
			}
		}},
	})
	s.run([]event{
		{at: retryAt.Add(-time.Microsecond).Sub(s.t0), op: wake, nodes: []int{0}},
		{op: check, do: func(s *sim) {
			if !cs.backoff {
				t.Fatal("re-prepared before the backoff ran out")
			}
		}},
		{at: retryAt.Sub(s.t0), op: wake, nodes: []int{0}},
		{op: flow},
	})
	if c.xCommits != 1 || c.xRetries != 1 || len(c.coord) != 0 {
		t.Fatalf("after the retry: commits=%d retries=%d pending=%d", c.xCommits, c.xRetries, len(c.coord))
	}

	// Shard 1 loses its leader for good.
	tx2 := payment(2, keyIn(p, 0, 1), keyIn(p, 1, 1))
	s.run([]event{{op: crash, nodes: []int{2}}, {op: submit, nodes: []int{0}, tx: tx2}})
	for round := 0; len(c.coord) > 0; round++ {
		if round > 2*maxAttempts {
			t.Fatalf("coordination still pending after %d deadlines", round)
		}
		// Each wake lands exactly on the instant the core asked for.
		s.run([]event{{at: c.coordDue.Sub(s.t0), op: wake, nodes: []int{0}}, {op: flow}})
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
		if ent, held := c.locks[string(key)]; held && !s.down[i] && s.now.Before(ent.expires) {
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
	s.watch = func(s *sim) {
		if owners := s.lockOwners(hot); len(owners) > 1 {
			t.Fatalf("row %d: the contended account has %d owners", s.row, len(owners))
		}
		s.accounted(4)
		s.accounted(2)
	}
	s.run(elected(0, 2, 4))
	s.run([]event{
		{op: submit, nodes: []int{4}, tx: first},
		{op: submit, nodes: []int{2}, tx: second}, // node 2 leads shard 1: it votes for itself at once
		{op: recv, nodes: []int{0}},
		{op: check, do: func(s *sim) {
			if owners := s.lockOwners(hot); len(owners) != 1 || owners[0] != first.Hash() {
				t.Fatalf("owners after both prepares: %v", owners)
			}
		}},
		{op: recv, nodes: []int{1, 2, 3}},
		{op: recv, nodes: []int{2, 4}}, // the votes: yes+yes to 4, a refusal to 2
	})
	a, b := s.cores[4], s.cores[2]
	if a.xCommits != 1 || b.xCommits != 0 || b.xRetries != 1 {
		t.Fatalf("after the votes: first commits=%d; second commits=%d retries=%d", a.xCommits, b.xCommits, b.xRetries)
	}
	s.run([]event{
		{op: flow}, // the commit releases the account; both groups order the first payment
		{at: b.coordDue.Sub(s.t0), op: wake, nodes: []int{2}},
		{op: flow},
	})
	if b.xCommits != 1 || b.xAborts != 0 || b.xRetries != 1 {
		t.Fatalf("second payment: commits=%d aborts=%d retries=%d", b.xCommits, b.xAborts, b.xRetries)
	}
	for _, tx := range []*types.Transaction{first, second} {
		for _, i := range []int{0, 1, 2, 3} {
			if _, ok := s.chains[i].Receipt(tx.Hash()); !ok {
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
	s.watch = func(s *sim) { s.accounted(2) }
	s.run(elected(0, 2, 4))
	var locked time.Time
	s.run([]event{
		{op: submit, nodes: []int{4}, tx: orphan},
		{op: recv, nodes: []int{0, 1, 2, 3}},
		{op: check, do: func(s *sim) { locked = s.now }},
		{op: crash, nodes: []int{4}}, // the votes fall on a dead node
		{op: drop, nodes: []int{4}},
		{at: 2*raft.DefaultOptions().ElectionTimeout + 10*time.Millisecond, op: submit, nodes: []int{2}, tx: next},
		{op: flow},
	})
	l0, b := s.cores[0], s.cores[2]
	if b.xRetries != 1 || b.xCommits != 0 || len(s.lockOwners(hot)) != 1 || s.lockOwners(hot)[0] != orphan.Hash() {
		t.Fatalf("while the orphan lock is live: retries=%d commits=%d owners=%v", b.xRetries, b.xCommits, s.lockOwners(hot))
	}
	if l0.sweepAt.IsZero() || l0.sweepAt.After(locked.Add(lockTTL)) {
		t.Fatalf("leader's sweep is set for %v; the lock expires at %v", l0.sweepAt, locked.Add(lockTTL))
	}
	s.run([]event{
		// One more attempt a millisecond before expiry is refused too.
		{at: locked.Add(lockTTL - time.Millisecond).Sub(s.t0), op: wake, nodes: []int{2}},
		{op: flow},
		{op: check, do: func(s *sim) {
			if b.xRetries != 2 || len(l0.locks) != 1 {
				t.Fatalf("just before lockTTL: retries=%d, leader holds %d locks", b.xRetries, len(l0.locks))
			}
		}},
		{at: locked.Add(lockTTL).Sub(s.t0), op: wake, nodes: []int{0}},
		{op: check, do: func(s *sim) {
			if len(l0.locks) != 0 || len(l0.txLocks) != 0 || !l0.sweepAt.IsZero() {
				t.Fatalf("after the sweep: locks=%d txLocks=%d sweepAt=%v", len(l0.locks), len(l0.txLocks), l0.sweepAt)
			}
		}},
		{op: flow},
	})
	s.run([]event{{at: b.coordDue.Sub(s.t0), op: wake, nodes: []int{2}}, {op: flow}})
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
	s.run(elected(0, 3))
	var applied time.Time
	s.run([]event{
		{op: submit, nodes: []int{0}, tx: tx},
		{op: wake, nodes: []int{0}}, // the outbound queue's signal: an idle gateway flushes at once
		{op: check, do: func(s *sim) {
			if got := s.inFlight(MsgForward); !slices.Equal(got, []string{"0>3", "0>4", "0>5"}) {
				t.Fatalf("forwards in flight: %v", got)
			}
			if c := s.cores[0]; !slices.Equal(c.awaiting[id], []int{1}) || c.fastpath != 1 {
				t.Fatalf("gateway after the flush: awaiting=%v fastpath=%d", c.awaiting[id], c.fastpath)
			}
		}},
		{op: recv, nodes: []int{3, 4, 5}}, // admitted everywhere; the leader proposes in the same step
		{op: recv, nodes: []int{4, 5}},    // append
		{op: recv, nodes: []int{3}},       // acks: commit, apply, notice, commit index to followers
		{op: check, do: func(s *sim) {
			applied = s.now
			if got := s.inFlight(MsgNotice); !slices.Equal(got, []string{"3>0"}) {
				t.Fatalf("notices in flight: %v (the leader's, and only its)", got)
			}
		}},
		{op: drop, nodes: []int{0}},    // the notice is lost...
		{op: recv, nodes: []int{4, 5}}, // ...the followers apply...
		{op: crash, nodes: []int{3}},   // ...and the leader dies.
		{op: flow},
		{op: check, do: func(s *sim) {
			for _, i := range []int{4, 5} {
				if c := s.cores[i]; len(c.owed) != 1 || len(c.notice) != 0 {
					t.Fatalf("follower %d: owed=%d notice=%d", i, len(c.owed), len(c.notice))
				}
			}
			if len(s.cores[0].remoteQ) != 0 {
				t.Fatal("gateway surfaced a commit nobody told it about")
			}
		}},
		{at: 5 * et, op: wake, nodes: []int{4}}, // past everyone's sticky-voter window
		{op: recv, nodes: []int{5}},
		{op: recv, nodes: []int{4}}, // the vote: node 4 leads, and sends what it owes
		{op: check, do: func(s *sim) {
			if got := s.inFlight(MsgNotice); !s.cores[4].replica.IsLeader() || !slices.Equal(got, []string{"4>0"}) {
				t.Fatalf("successor leads=%v, notices in flight: %v", s.cores[4].replica.IsLeader(), got)
			}
		}},
		{op: flow},
	})
	if c := s.cores[0]; !slices.Equal(c.remoteQ, []types.Hash{id}) || len(c.awaiting) != 0 {
		t.Fatalf("gateway: remoteQ=%v awaiting=%d", c.remoteQ, len(c.awaiting))
	}
	if n4, n5 := len(s.cores[4].owed), len(s.cores[5].owed); n4 != 0 || n5 != 1 {
		t.Fatalf("owed after failover: successor %d, follower %d", n4, n5)
	}
	s.run([]event{
		{at: applied.Add(noticeRetain).Sub(s.t0), op: wake, nodes: []int{4}}, // a heartbeat
		{op: flow},
		{op: check, do: func(s *sim) {
			if len(s.cores[5].owed) != 1 {
				t.Fatal("follower dropped its record before noticeRetain had passed")
			}
		}},
		{at: applied.Add(noticeRetain + raft.DefaultOptions().Heartbeat).Sub(s.t0), op: wake, nodes: []int{4}},
		{op: flow}, // the next heartbeat
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
		return event{op: inject, nodes: []int{4}, msg: simnet.Message{From: simnet.NodeID(from), To: 4,
			Type: MsgVote, Corrupt: corrupt, Payload: &Vote{TxID: id, Shard: shard, Attempt: attempt, OK: ok}}}
	}
	s.run(elected(0, 2, 4))
	c := s.cores[4]
	s.run([]event{
		{op: submit, nodes: []int{4}, tx: tx},
		{op: drop, nodes: []int{0, 1, 2, 3}}, // every prepare is lost: attempt 1 times out
		{at: 2*raft.DefaultOptions().ElectionTimeout + prepareTimeout, op: wake, nodes: []int{4}},
		{op: drop, nodes: []int{0, 1, 2, 3, 5}},
	})
	cs := c.coord[id]
	s.run([]event{
		{at: cs.due.Sub(s.t0), op: wake, nodes: []int{4}}, // attempt 2 opens
		{op: drop, nodes: []int{0, 1, 2, 3, 5}},
		vote(0, 0, 1, true, false), // attempt 1's vote, late
		{op: check, do: func(s *sim) {
			if cs.attempt != 2 || cs.backoff || len(cs.votes) != 0 {
				t.Fatalf("a stale vote counted: attempt=%d backoff=%v votes=%v", cs.attempt, cs.backoff, cs.votes)
			}
		}},
		vote(0, 0, 2, false, true), // a corrupt refusal
		{op: check, do: func(s *sim) {
			if cs.backoff || c.xRetries != 1 {
				t.Fatalf("a corrupt refusal aborted the attempt: retries=%d", c.xRetries)
			}
		}},
		vote(0, 0, 2, true, false),
		vote(1, 0, 2, true, false), // shard 0 again, from the member that took over
		{op: check, do: func(s *sim) {
			if !slices.Equal(cs.votes, []int{0}) || c.xCommits != 0 {
				t.Fatalf("a duplicate vote counted: votes=%v commits=%d", cs.votes, c.xCommits)
			}
		}},
		vote(2, 1, 2, true, false),
		{op: check, do: func(s *sim) {
			if c.xCommits != 1 || len(s.inFlight(MsgDecide)) != 4 {
				t.Fatalf("commits=%d, decisions in flight %v", c.xCommits, s.inFlight(MsgDecide))
			}
		}},
	})
	// The decision arrives corrupted at node 1 and intact at node 0.
	for i := range s.flight {
		if s.flight[i].To == 1 {
			s.flight[i].Corrupt = true
		}
	}
	s.run([]event{{op: recv, nodes: []int{0, 1}}})
	if s.pools[0].Len() != 1 || s.pools[1].Len() != 0 || len(s.cores[1].notice) != 0 {
		t.Fatalf("pools after the decision: node 0 holds %d, node 1 (corrupt copy) %d", s.pools[0].Len(), s.pools[1].Len())
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
	s.run(elected(0, 2))
	var flushed time.Time
	s.run([]event{
		{op: submit, nodes: []int{1}, tx: write(1, keyIn(p, 1, 0))},
		{op: wake, nodes: []int{1}},
		{op: check, do: func(s *sim) {
			flushed = s.now
			if got := s.inFlight(MsgForward); !slices.Equal(got, []string{"1>2", "1>3"}) {
				t.Fatalf("idle gateway: forwards in flight %v", got)
			}
		}},
		{op: flow},
		{at: 2*raft.DefaultOptions().ElectionTimeout + forwardInterval/4, op: submit, nodes: []int{1}, tx: write(2, keyIn(p, 1, 1))},
		{op: wake, nodes: []int{1}},
		{op: submit, nodes: []int{1}, tx: write(3, keyIn(p, 0, 0))}, // own shard
		{op: wake, nodes: []int{1}},
		{op: check, do: func(s *sim) {
			if len(s.flight) != 0 || s.cores[1].outbound.Len() != 2 {
				t.Fatalf("inside the interval: %d messages sent, %d queued", len(s.flight), s.cores[1].outbound.Len())
			}
			if want := flushed.Add(forwardInterval); !s.wakes[1].Equal(want) {
				t.Fatalf("busy gateway asked to be woken at %v, want the interval's end %v", s.wakes[1], want)
			}
		}},
	})
	s.run([]event{
		{at: s.wakes[1].Sub(s.t0), op: wake, nodes: []int{1}},
		{op: check, do: func(s *sim) {
			if got := s.inFlight(MsgForward); !slices.Equal(got, []string{"1>0", "1>2", "1>3"}) {
				t.Fatalf("at the interval's end: forwards in flight %v", got)
			}
			if s.pools[1].Len() != 1 || s.cores[1].outbound.Len() != 0 || s.cores[1].fastpath != 3 {
				t.Fatalf("own-shard transaction: pool=%d queued=%d fastpath=%d",
					s.pools[1].Len(), s.cores[1].outbound.Len(), s.cores[1].fastpath)
			}
		}},
		{op: flow},
	})
	// Shard 1's leader proposed the first write at once and withheld the
	// second as a partial batch: its gateway core asks for the replica's
	// batch timeout, and a wake at that instant proposes it.
	s.run([]event{{at: s.wakes[2].Sub(s.t0), op: wake, nodes: []int{2}}, {op: flow}})
	for _, i := range []int{0, 1} {
		if s.chains[i].Height() != 1 {
			t.Fatalf("shard 0 member %d at height %d", i, s.chains[i].Height())
		}
	}
	if got := s.engineOf(1).DrainRemoteCommits(); len(got) != 2 {
		t.Fatalf("gateway surfaced %d of its 2 foreign-shard commits", len(got))
	}
}
