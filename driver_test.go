package blockbench

import (
	"context"
	"runtime"
	"testing"
	"time"

	"blockbench/internal/consensus/raft"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want, tolerating the runtime's own background goroutines settling.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > %d\n%s", n, want,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestRunHandleStreamsSnapshots(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 2)
	run, err := Start(context.Background(), c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients:  2,
		Threads:  2,
		Rate:     60,
		Duration: 2 * time.Second,
		Bucket:   250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	var frames []Snapshot
	for snap := range run.Snapshots() {
		frames = append(frames, snap)
	}
	r, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// ≥ 1 frame per bucket: a 2s run at 250ms buckets has 8 buckets (the
	// last one arrives as the final partial frame). One coalesced tick is
	// tolerated — time.Ticker drops ticks when a loaded host deschedules
	// the emitter past a bucket boundary.
	if len(frames) < 7 {
		t.Fatalf("got %d snapshots for 8 buckets", len(frames))
	}
	var prev Snapshot
	for i, s := range frames {
		if s.Seq != i {
			t.Fatalf("frame %d has seq %d", i, s.Seq)
		}
		if s.Submitted < prev.Submitted || s.Committed < prev.Committed ||
			s.Elapsed < prev.Elapsed {
			t.Fatalf("cumulative metrics went backwards at frame %d: %+v -> %+v", i, prev, s)
		}
		if s.Counters == nil {
			t.Fatalf("frame %d has no platform counters", i)
		}
		prev = s
	}
	last := frames[len(frames)-1]
	if last.Committed == 0 || last.Committed != r.Committed {
		t.Fatalf("final frame committed=%d, report committed=%d", last.Committed, r.Committed)
	}
	if _, ok := last.Counters["pbft.batches"]; !ok {
		t.Fatalf("PBFT counters missing from snapshot: %v", last.Counters)
	}
	if r.Aborted {
		t.Fatal("uncancelled run marked aborted")
	}
}

func TestRunHandleCancelReturnsPartialReportLeakFree(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 2)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run, err := Start(ctx, c, DoNothingWorkload{}, RunConfig{
		Clients:  2,
		Threads:  2,
		Rate:     100,
		Duration: 5 * time.Minute, // the run must end by cancellation, not deadline
		Bucket:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Let the run commit something so the partial report is non-trivial.
	deadline := time.Now().Add(30 * time.Second)
	for run.committed.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()

	r, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r == nil {
		t.Fatal("cancelled run returned no report")
	}
	if !r.Aborted {
		t.Fatal("cancelled run not marked aborted")
	}
	if r.Committed == 0 {
		t.Fatal("partial report lost the committed count")
	}
	if r.Duration >= 5*time.Minute {
		t.Fatalf("cancelled run claims the full window: %v", r.Duration)
	}

	// The snapshot channel must be closed.
	if _, open := <-run.Snapshots(); open {
		// Buffered frames may remain; drain to the close.
		for range run.Snapshots() {
		}
	}
	if _, open := <-run.Snapshots(); open {
		t.Fatal("snapshot channel still open after Wait")
	}

	// Every driver goroutine must be gone (cluster goroutines persist —
	// they were counted in before).
	waitGoroutines(t, before+2)
}

func TestRunHandleCancelBlockingMode(t *testing.T) {
	c := fastCluster(t, Hyperledger, 4, 1)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	run, err := Start(ctx, c, DoNothingWorkload{}, RunConfig{
		Clients:  1,
		Threads:  2,
		Blocking: true,
		Duration: 5 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	cancel()
	r, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Aborted {
		t.Fatal("cancelled blocking run not marked aborted")
	}
	waitGoroutines(t, before+2)
}

// TestDelayAndCorruptEventsFireAndClear runs the two §3.3 injections no
// figure uses, message delay and corrupted responses, on a quorum run,
// once naming every node and once naming none (which means every node):
// each is set and then cleared, all four events reach the report in
// order and by name, and the run commits, after the clear too. Each
// window is checked by its own counter in the snapshot stream:
// simnet.delayed and simnet.corrupted rise between the frame that saw
// the set and the one that saw the clear, and stay flat from the clear
// to the end of the run. A window in which every message arrives
// corrupted starves the followers of heartbeats for several election
// timeouts, so raft.elections rises too.
func TestDelayAndCorruptEventsFireAndClear(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []int
		want  []string // record names of the four events, in order
	}{
		{"listed", []int{0, 1, 2, 3}, []string{"setdelay(20ms,[0 1 2 3])", "setdelay(0s,[0 1 2 3])",
			"setcorruptrate(1,[0 1 2 3])", "setcorruptrate(0,[0 1 2 3])"}},
		{"none", nil, []string{"setdelay(20ms,[])", "setdelay(0s,[])",
			"setcorruptrate(1,[])", "setcorruptrate(0,[])"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fastCluster(t, Quorum, 4, 2)
			events := []Event{
				SetDelay(100*time.Millisecond, 20*time.Millisecond, tc.nodes...),
				SetDelay(400*time.Millisecond, 0, tc.nodes...),
				SetCorruptRate(700*time.Millisecond, 1, tc.nodes...),
				SetCorruptRate(1200*time.Millisecond, 0, tc.nodes...),
			}
			run, err := Start(context.Background(), c, &YCSBWorkload{Records: 50}, RunConfig{
				Clients: 2, Threads: 2, Rate: 60, Duration: 3 * time.Second,
				Bucket: 50 * time.Millisecond, Events: events,
			})
			if err != nil {
				t.Fatal(err)
			}
			// fired[name] is the counters of the first frame after the event:
			// the action took effect before the frame read them.
			fired := map[string]map[string]uint64{}
			for snap := range run.Snapshots() {
				for _, name := range snap.Events {
					fired[name] = snap.Counters
				}
			}
			r, err := run.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Events) != len(tc.want) {
				t.Fatalf("report events %+v, want %q", r.Events, tc.want)
			}
			for i, ev := range r.Events {
				if ev.Name != tc.want[i] || ev.At < events[i].At {
					t.Fatalf("report event %d is %q at %v, want %q at or after %v", i, ev.Name, ev.At, tc.want[i], events[i].At)
				}
				if fired[ev.Name] == nil {
					t.Fatalf("event %q reached no snapshot", ev.Name)
				}
			}
			for w, key := range []string{"simnet.delayed", "simnet.corrupted"} {
				set, clear := fired[tc.want[2*w]][key], fired[tc.want[2*w+1]][key]
				if clear <= set {
					t.Errorf("%s: %d when set, %d when cleared; want a rise inside the window", key, set, clear)
				}
				if end := r.Counters[key]; end != clear {
					t.Errorf("%s: %d when cleared, %d at the end; want flat after the clear", key, clear, end)
				}
			}
			if r.Counters["raft.elections"] == 0 {
				t.Fatalf("a window of corrupted messages raised no raft election: %v", r.Counters)
			}
			var after float64
			for i := int(r.Events[3].At/r.Bucket) + 1; i < len(r.CommitSeries); i++ {
				after += r.CommitSeries[i]
			}
			if r.Committed == 0 || after == 0 {
				t.Fatalf("committed %d in all, %v after the last clear; want both > 0", r.Committed, after)
			}
		})
	}
}

// TestEventScheduleCrashRaisesElections is the acceptance scenario: a
// scheduled CrashNode of the Raft leader on the quorum platform shows
// raft.elections rising in the generic Counters map of the final Report,
// with the event stamped into the snapshot stream.
func TestEventScheduleCrashRaisesElections(t *testing.T) {
	c := fastCluster(t, Quorum, 4, 2)

	// Find the elected leader (the event schedule needs its index).
	leader := -1
	deadline := time.Now().Add(30 * time.Second)
	for leader < 0 && time.Now().Before(deadline) {
		for i := 0; i < c.Size(); i++ {
			if e, ok := c.Inner().Node(i).Consensus().(*raft.Engine); ok && e.IsLeader() {
				leader = i
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader < 0 {
		t.Fatal("no raft leader elected")
	}

	run, err := Start(context.Background(), c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients:  2,
		Threads:  2,
		Rate:     60,
		Duration: 3 * time.Second,
		Events:   []Event{CrashNode(500*time.Millisecond, leader)},
	})
	if err != nil {
		t.Fatal(err)
	}
	sawEvent := false
	for snap := range run.Snapshots() {
		for _, name := range snap.Events {
			if name == CrashNode(0, leader).Act.Name {
				sawEvent = true
			}
		}
	}
	r, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !sawEvent {
		t.Fatal("crash event never stamped into the snapshot stream")
	}
	if len(r.Events) != 1 || r.Events[0].At < 500*time.Millisecond {
		t.Fatalf("report event timeline wrong: %+v", r.Events)
	}
	if r.Counters["raft.elections"] == 0 {
		t.Fatalf("crashing the leader did not raise raft.elections: %v", r.Counters)
	}
	if r.Elections() == 0 {
		t.Fatal("Elections() accessor disagrees with the counters map")
	}
}
