package blockbench

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

// The tests below hold the driver's one submit→confirm pipeline to its
// definitions: closed loop is the open-loop path with a different
// pacing source, so it confirms at depth, has a queue and calls Next
// from one goroutine per client; and a cluster can be driven twice.

// TestClosedLoopHonoursConfirmationDepth counts in blocks, not seconds:
// a closed-loop client with a window of one sends its next transaction
// only once the previous one is ConfirmationDepth blocks deep, so
// consecutive commits lie more than depth blocks apart.
func TestClosedLoopHonoursConfirmationDepth(t *testing.T) {
	c := fastCluster(t, Parity, 4, 1, "donothing")
	r, err := Run(c, DoNothingWorkload{}, RunConfig{
		Clients: 1, Threads: 1, Blocking: true, Duration: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	depth := c.Inner().ConfirmationDepth()
	if depth == 0 || r.Committed == 0 {
		t.Fatalf("depth %d, committed %d: nothing to check", depth, r.Committed)
	}
	if r.Committed*depth > r.Blocks+depth {
		t.Fatalf("%d commits in %d blocks at confirmation depth %d: the window of one did not wait for depth",
			r.Committed, r.Blocks, depth)
	}
}

// TestClosedLoopHasAQueue: the closed-loop window is accounted like any
// other standing queue — sampled into QueueSeries, visible as
// QueueDepth in the snapshot stream, and bounded by Clients x Threads.
func TestClosedLoopHasAQueue(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 2)
	const clients, threads = 2, 2
	run, err := Start(context.Background(), c, DoNothingWorkload{}, RunConfig{
		Clients: clients, Threads: threads, Blocking: true,
		Duration: 1500 * time.Millisecond, Bucket: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	deepest := 0
	for snap := range run.Snapshots() {
		deepest = max(deepest, snap.QueueDepth)
	}
	r, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if deepest <= 0 || deepest > clients*threads {
		t.Fatalf("max QueueDepth = %d, want in (0, %d]", deepest, clients*threads)
	}
	if len(r.QueueSeries) == 0 {
		t.Fatal("closed loop reported no QueueSeries")
	}
	if r.Committed == 0 || r.Submitted-r.Committed > clients*threads {
		t.Fatalf("submitted %d, committed %d: more than the window of %d is unconfirmed",
			r.Submitted, r.Committed, clients*threads)
	}
}

// soloWorkload holds a per-client flag across a sleep inside Next: a
// second concurrent caller for the same client finds it set.
type soloWorkload struct {
	DoNothingWorkload
	busy       [4]atomic.Bool
	calls      atomic.Int64
	collisions atomic.Int64
}

func (w *soloWorkload) Next(clientID int, rng *rand.Rand) Op {
	w.calls.Add(1)
	if w.busy[clientID].Swap(true) {
		w.collisions.Add(1)
	} else {
		time.Sleep(time.Millisecond)
		w.busy[clientID].Store(false)
	}
	return w.DoNothingWorkload.Next(clientID, rng)
}

// TestNextHasOneCallerPerClient pins Workload.Next's contract in the
// mode that used to break it: closed loop with several threads.
func TestNextHasOneCallerPerClient(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 2)
	w := &soloWorkload{}
	if _, err := Run(c, w, RunConfig{
		Clients: 2, Threads: 4, Blocking: true, Duration: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	if w.calls.Load() == 0 {
		t.Fatal("Next was never called")
	}
	if n := w.collisions.Load(); n != 0 {
		t.Fatalf("%d of %d Next calls overlapped another call for the same client", n, w.calls.Load())
	}
}

// TestBackToBackRunsCommit: a client identity's nonce sequence lives on
// the cluster, so a second run with the same seed and workload does not
// rebuild the first run's transactions (which every pool would drop as
// already known), and two connectors of one identity never collide.
func TestBackToBackRunsCommit(t *testing.T) {
	c := fastCluster(t, Quorum, 4, 2)
	for i := 1; i <= 3; i++ {
		r, err := Run(c, DoNothingWorkload{}, RunConfig{
			Clients: 2, Threads: 1, Rate: 50, Duration: time.Second, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Committed == 0 {
			t.Fatalf("run %d on the same cluster committed nothing (submitted %d, submit errors %d)",
				i, r.Submitted, r.SubmitErrors)
		}
	}
	op := DoNothingWorkload{}.Next(0, nil)
	a, err := c.ClientOn(0, 0).Send(op)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.ClientOn(0, 1).Send(op)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("two connectors of identity 0 built the same transaction %s", a)
	}
}

// TestShardedRunBoundaryKeepsXShardAccounting drives ten short runs
// back to back over a sharded cluster: each run begins with
// coordinations of the previous one still resolving, and the accounting
// invariant must not read their commits as double resolutions. With
// one replica per shard smallbank's own replica-agreement audit has
// nothing to compare, so it does not settle the boundary by taking time.
func TestShardedRunBoundaryKeepsXShardAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("ten runs over a sharded cluster")
	}
	c := fastClusterStopped(t, Sharded, 4, 4, "smallbank") // 4 shards x 1 replica
	w := &SmallbankWorkload{Accounts: 100}
	if err := w.Init(c, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	c.Start()
	var coordinated uint64
	for i := 1; i <= 10; i++ {
		r, err := Run(c, w, RunConfig{
			Clients: 4, Threads: 2, Rate: 200, Duration: 300 * time.Millisecond,
			Seed: int64(i), SkipInit: true, CheckInvariants: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Invariants) > 0 {
			t.Fatalf("run %d: %v", i, r.Invariants)
		}
		coordinated += r.Counter("xshard.txs")
	}
	if coordinated == 0 {
		t.Fatal("no cross-shard transaction was coordinated: the check saw nothing")
	}
}

// TestPacedOpenLoopSubmitsWhatIsDue pins the paced semantics the
// repository benchmark computes `due` from: a generator ticks once per
// 1/Rate from the start, the window ending half an interval after the
// last due tick admits exactly that tick, and every generated operation
// is submitted. More than due is wrong on any host; fewer happens only
// when the host stalls a goroutine for an interval or more, which one
// of three attempts is allowed to escape.
func TestPacedOpenLoopSubmitsWhatIsDue(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive: needs an unloaded tick")
	}
	c := fastCluster(t, Quorum, 4, 2)
	const clients, rate, ticks = 2, 50, 100
	var r *Report
	for attempt := 1; attempt <= 3; attempt++ {
		var err error
		r, err = Run(c, DoNothingWorkload{}, RunConfig{
			Clients: clients, Threads: 1, Rate: rate,
			Duration: time.Second * (2*ticks + 1) / (2 * rate), // 100.5 ticks
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Submitted > clients*ticks || r.SubmitErrors != 0 {
			t.Fatalf("submitted %d of %d due with %d submit errors", r.Submitted, clients*ticks, r.SubmitErrors)
		}
		if r.Submitted == clients*ticks {
			return
		}
		t.Logf("attempt %d: submitted %d of %d due", attempt, r.Submitted, clients*ticks)
	}
	t.Fatalf("submitted %d of %d due in each of three attempts", r.Submitted, clients*ticks)
}
