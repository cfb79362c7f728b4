// Package schedtest drives consensus cores through schedule tables: n
// nodes, each a consensus.Step over its own chain, pool and in-memory
// store, joined by a flight queue the table drains. No Engine,
// runner, goroutine or sleep: time is a value the table advances, and
// the whole interleaving is the table (DESIGN.md § Consensus seam).
package schedtest

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"blockbench/internal/consensus"
	"blockbench/internal/exec"
	"blockbench/internal/kvstore"
	"blockbench/internal/ledger"
	"blockbench/internal/simnet"
	"blockbench/internal/state"
	"blockbench/internal/txpool"
	"blockbench/internal/types"
)

// Op is what a row does.
type Op int

const (
	Wake    Op = iota // the nodes' timers fire (or their pools signal)
	Recv              // the nodes (none: everyone) receive what is in flight to them, in send order
	Drop              // what is in flight to the nodes (none: everyone) is lost
	Flow              // everything in flight is delivered, and what that sends, until the wire is quiet
	Cut               // partition: the nodes on one side, everyone else on the other; what crosses is lost
	Crash             // the nodes die: mail to them is lost
	Restart           // the nodes are killed and rebuilt from their chains and metas, with empty pools and no timers
	Inject            // Msg is handed to the nodes as if the wire had carried it
	Do                // Do runs: an engine's own step (a submission, a pool refill) or a check
)

// Row is one line of a schedule: at T0+At (the clock never goes back;
// 0 keeps it), Op happens on each of Nodes in order.
type Row struct {
	At    time.Duration
	Op    Op
	Nodes []int
	Msg   simnet.Message // Inject's
	Do    func()         // Do's
}

// Sim is n cores joined by an in-memory wire.
type Sim struct {
	// T0 is the instant Row.At counts from; a table that needs another
	// epoch moves T0 and Now before its first row.
	T0, Now time.Time
	Chains  []*ledger.Chain
	Pools   []*txpool.Pool
	Wakes   []time.Time      // what each node's last step asked for
	Down    []bool           // crashed
	Flight  []simnet.Message // sent, not yet received or dropped
	Log     []simnet.Message // every delivery and injection, in order, payload cleared
	Row     int              // rows run so far
	Watch   func()           // if set, runs after every row: an invariant of every point in between

	t     testing.TB
	boot  func(consensus.Context, time.Time) consensus.Step
	steps []consensus.Step
	peers []simnet.NodeID
	metas []kvstore.Store // each node's Context.Meta, which survives Restart
	side  []int           // partition group per node
}

// replaying collects the sims New builds while Replay runs a test, so
// Replay must not run beside another test that builds sims (t.Parallel).
var replaying *[]*Sim

// New builds n nodes, each with a fresh pool, a Chain running the named
// native chaincodes and an empty kvstore.Mem, and boots each core with
// boot from a Context whose Endpoint is the sim's wire, at T0.
func New(t testing.TB, n int, boot func(ctx consensus.Context, now time.Time) consensus.Step, contracts ...string) *Sim {
	t0 := time.Unix(1_000_000, 0)
	s := &Sim{T0: t0, Now: t0, Wakes: make([]time.Time, n), Down: make([]bool, n),
		t: t, boot: boot, steps: make([]consensus.Step, n), side: make([]int, n)}
	for i := range n {
		s.peers = append(s.peers, simnet.NodeID(i))
		s.Pools = append(s.Pools, txpool.New(0))
		// Inclusions drain the node's pool of the moment: Restart replaces it.
		s.Chains = append(s.Chains, Chain(t, func(txs []*types.Transaction) { s.Pools[i].MarkIncluded(txs) }, contracts...))
		s.metas = append(s.metas, kvstore.NewMem())
	}
	for i := range n {
		s.steps[i] = s.start(i)
	}
	if replaying != nil {
		*replaying = append(*replaying, s)
	}
	return s
}

// Rebuild replaces node i, before any row has run, with one whose chain
// executes on eng: a replica whose execution departs from the group's.
func (s *Sim) Rebuild(i int, eng exec.Engine) {
	s.Chains[i] = chainOver(s.t, eng, func(txs []*types.Transaction) { s.Pools[i].MarkIncluded(txs) })
	s.steps[i] = s.start(i)
}

func (s *Sim) start(i int) consensus.Step {
	return s.boot(consensus.Context{Self: simnet.NodeID(i), Endpoint: wire{s, simnet.NodeID(i)},
		Chain: s.Chains[i], Pool: s.Pools[i], Peers: s.peers, Meta: s.metas[i]}, s.Now)
}

// Run plays rows in order, running Watch after each.
func (s *Sim) Run(rows []Row) {
	s.t.Helper()
	for _, r := range rows {
		s.Row++
		if at := s.T0.Add(r.At); at.After(s.Now) {
			s.Now = at
		}
		switch r.Op {
		case Recv, Drop:
			s.deliver(r.Op == Recv, r.Nodes)
		case Flow:
			for round := 0; len(s.Flight) > 0; round++ {
				if round == 100 {
					s.t.Fatalf("row %d: the wire never went quiet", s.Row)
				}
				s.deliver(true, nil)
			}
		case Do:
			r.Do()
		}
		for _, i := range r.Nodes {
			switch r.Op {
			case Wake:
				s.step(i, consensus.Wake)
			case Inject:
				s.step(i, r.Msg)
			case Crash:
				s.Down[i] = true
			case Restart: // the chain (block journal) and the meta record stay
				s.Pools[i] = txpool.New(0)
				s.steps[i] = s.start(i)
			case Cut:
				s.side[i] = 1
			}
		}
		if r.Op == Cut {
			s.Flight = slices.DeleteFunc(s.Flight, func(m simnet.Message) bool { return s.side[m.From] != s.side[m.To] })
		}
		if s.Watch != nil {
			s.Watch()
		}
	}
}

func (s *Sim) step(i int, m simnet.Message) {
	s.Wakes[i] = s.steps[i](s.Now, m)
	if m.Type != "" {
		m.To, m.Payload = simnet.NodeID(i), nil
		s.Log = append(s.Log, m)
	}
}

// deliver hands (recv) or loses what was in flight to nodes (nil:
// everyone) when the row began, in send order; what those steps send in
// turn waits for a later row. Mail for the dead is lost either way.
func (s *Sim) deliver(recv bool, nodes []int) {
	batch := s.Flight
	s.Flight = nil
	var rest []simnet.Message
	for _, m := range batch {
		switch {
		case s.Down[m.To]:
		case nodes != nil && !slices.Contains(nodes, int(m.To)):
			rest = append(rest, m)
		case recv:
			s.step(int(m.To), m)
		}
	}
	s.Flight = append(rest, s.Flight...)
}

// wire is one node's consensus.Net: a send joins the flight queue unless
// a cut lies between the two nodes.
type wire struct {
	s    *Sim
	self simnet.NodeID
}

func (w wire) Send(to simnet.NodeID, typ string, payload any) bool {
	if w.s.side[w.self] != w.s.side[to] {
		return false
	}
	w.s.Flight = append(w.s.Flight, simnet.Message{From: w.self, To: to, Type: typ, Payload: payload})
	return true
}

// Broadcast reaches every other node of the cluster, as simnet's does.
func (w wire) Broadcast(typ string, payload any) {
	for _, p := range w.s.peers {
		if p != w.self {
			w.Send(p, typ, payload)
		}
	}
}

// Chain is an empty forking ledger over an in-memory trie that runs the
// named native chaincodes and hands what its blocks include to onInclude
// (nil: nobody).
func Chain(t testing.TB, onInclude func([]*types.Transaction), contracts ...string) *ledger.Chain {
	t.Helper()
	eng, err := exec.NewNativeEngine(contracts...)
	if err != nil {
		t.Fatal(err)
	}
	return chainOver(t, eng, onInclude)
}

// chainOver is Chain with its engine given.
func chainOver(t testing.TB, eng exec.Engine, onInclude func([]*types.Transaction)) *ledger.Chain {
	t.Helper()
	store := kvstore.NewMem()
	chain, err := ledger.New(ledger.Config{Engine: eng, SupportsForks: true, OnInclude: onInclude,
		StateFactory: func(root types.Hash) (*state.DB, error) {
			b, err := state.NewTrieBackend(store, root, 0)
			if err != nil {
				return nil, err
			}
			return state.NewDB(b), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	return chain
}

// Replay runs each test sixteen times and fails unless every sim a run
// builds delivers what its twin in the first run did, in the same order,
// and ends with the same block at every height on every node: the rows
// alone decide a run, which is what lets a seed stand for a schedule.
// Go randomises map order per iteration but not uniformly (two entries
// come out swapped about one time in eight), hence sixteen runs.
func Replay(t *testing.T, tests ...func(*testing.T)) {
	defer func() { replaying = nil }()
	for _, test := range tests {
		name := runtime.FuncForPC(reflect.ValueOf(test).Pointer()).Name()
		name = name[strings.LastIndexByte(name, '.')+1:]
		sims := make([][]*Sim, 16)
		for k := range sims {
			replaying = &sims[k]
			if !t.Run(name, test) || len(sims[k]) != len(sims[0]) {
				t.Fatalf("%s: run %d failed or built %d sims, not %d", name, k, len(sims[k]), len(sims[0]))
			}
			for j, b := range sims[k] {
				if d := diff(sims[0][j], b); d != "" {
					t.Fatalf("%s: sim %d of run %d: %s", name, j, k, d)
				}
			}
		}
	}
}

// diff says where b's run departs from a's, or returns "".
func diff(a, b *Sim) string {
	for k := range max(len(a.Log), len(b.Log)) {
		if k >= len(a.Log) || k >= len(b.Log) || a.Log[k] != b.Log[k] {
			return fmt.Sprintf("delivery %d differs (%d in all, were %d)", k, len(b.Log), len(a.Log))
		}
	}
	for i, c := range a.Chains {
		for h := uint64(1); h <= max(c.Height(), b.Chains[i].Height()); h++ {
			x, _ := c.GetBlock(h)
			y, _ := b.Chains[i].GetBlock(h)
			if x == nil || y == nil || x.Hash() != y.Hash() {
				return fmt.Sprintf("node %d: block %d differs", i, h)
			}
		}
	}
	return ""
}
