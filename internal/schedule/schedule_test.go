package schedule

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeCluster records injections.
type fakeCluster struct {
	mu  sync.Mutex
	log []string
}

func (f *fakeCluster) record(s string) {
	f.mu.Lock()
	f.log = append(f.log, s)
	f.mu.Unlock()
}

func (f *fakeCluster) Crash(i int)   { f.record("crash") }
func (f *fakeCluster) Recover(i int) { f.record("recover") }
func (f *fakeCluster) PartitionGroups(groups [][]int) {
	f.record(fmt.Sprint("partition_groups", groups))
}
func (f *fakeCluster) Heal()                                    { f.record("heal") }
func (f *fakeCluster) SetDelay(d time.Duration, nodes ...int)   { f.record("setdelay") }
func (f *fakeCluster) SetCorruptRate(r float64, nodes ...int)   { f.record("setcorruptrate") }
func (f *fakeCluster) SetLinkFaults(d, u, r float64, ns ...int) { f.record("linkfaults") }

func TestRunFiresInOrderWithOffsets(t *testing.T) {
	c := &fakeCluster{}
	start := time.Now()
	recs := Run(c, start, []Event{
		{At: 0, Act: Crash(3)},
		{At: 30 * time.Millisecond, Act: Heal()},
	}, nil, nil)
	if len(recs) != 2 {
		t.Fatalf("fired %d events, want 2", len(recs))
	}
	if recs[0].Name != "crash(3)" || recs[1].Name != "heal" {
		t.Fatalf("wrong order: %v", recs)
	}
	if recs[1].At < 30*time.Millisecond {
		t.Fatalf("second event fired early at %v", recs[1].At)
	}
}

// A partition of k splits the first k nodes off as one group, under the
// record name the reports have always carried.
func TestPartitionSplitsFirstK(t *testing.T) {
	c := &fakeCluster{}
	var fired []string
	Run(c, time.Now(), []Event{{Act: Partition(2)}, {Act: Partition(0)}}, nil, func(r Record) { fired = append(fired, r.Name) })
	if want := []string{"partition(2)", "partition(0)"}; !slices.Equal(fired, want) {
		t.Fatalf("fired %q, want %q", fired, want)
	}
	if want := []string{"partition_groups[[0 1]]", "partition_groups[[]]"}; !slices.Equal(c.log, want) {
		t.Fatalf("cluster saw %q, want %q", c.log, want)
	}
}

func TestStopAbortsRemainingEvents(t *testing.T) {
	c := &fakeCluster{}
	stop := make(chan struct{})
	close(stop)
	recs := Run(c, time.Now(), []Event{
		{At: time.Hour, Act: Crash(0)},
	}, stop, nil)
	if len(recs) != 0 {
		t.Fatalf("fired %d events after stop, want 0", len(recs))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.log) != 0 {
		t.Fatalf("actions ran after stop: %v", c.log)
	}
}

func TestChaosDeterministicForSeed(t *testing.T) {
	cfg := ChaosConfig{Seed: 99, Duration: 30 * time.Second, Nodes: 5, KillProb: 0.05, NetProb: 0.1}
	a, b := Chaos(cfg), Chaos(cfg)
	if len(a) == 0 {
		t.Fatal("chaos timeline is empty")
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Act.Name != b[i].Act.Name {
			t.Fatalf("event %d differs: %v %q vs %v %q",
				i, a[i].At, a[i].Act.Name, b[i].At, b[i].Act.Name)
		}
	}
	c := Chaos(ChaosConfig{Seed: 100, Duration: 30 * time.Second, Nodes: 5, KillProb: 0.05, NetProb: 0.1})
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].At != c[i].At || a[i].Act.Name != c[i].Act.Name {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical timelines")
	}
}

func TestChaosNeverExceedsMinorityDownAndRecoversAll(t *testing.T) {
	cfg := ChaosConfig{Seed: 3, Duration: 60 * time.Second, Nodes: 5, KillProb: 0.2, NetProb: 0.1}
	events := Chaos(cfg)
	maxDown := (cfg.Nodes - 1) / 2
	down := map[int]bool{}
	for _, ev := range events {
		var i int
		if n, _ := fmt.Sscanf(ev.Act.Name, "crash(%d)", &i); n == 1 {
			down[i] = true
			if len(down) > maxDown {
				t.Fatalf("%d nodes down at %v, cap is %d", len(down), ev.At, maxDown)
			}
		}
		if n, _ := fmt.Sscanf(ev.Act.Name, "recover(%d)", &i); n == 1 {
			delete(down, i)
		}
	}
	if len(down) != 0 {
		t.Fatalf("nodes still down at end of timeline: %v", down)
	}
	// Ordering contract: the timeline must be sorted, since the driver
	// executes events strictly in sequence.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("timeline not sorted at %d: %v after %v", i, events[i].At, events[i-1].At)
		}
	}
}

func TestChaosTimelineEndsWithHeal(t *testing.T) {
	events := Chaos(ChaosConfig{Seed: 8, Duration: 20 * time.Second, Nodes: 4, KillProb: 0.1, NetProb: 0.2})
	healAt := 20 * time.Second * 4 / 5
	sawHeal := false
	for _, ev := range events {
		if ev.At >= healAt {
			if ev.Act.Name == "heal" {
				sawHeal = true
			}
			continue
		}
	}
	if !sawHeal {
		t.Fatal("no heal event in the convergence tail")
	}
	for _, ev := range events {
		if ev.At > healAt && (len(ev.Act.Name) > 5 && ev.Act.Name[:5] == "crash") {
			t.Fatalf("kill scheduled at %v, after the heal point %v", ev.At, healAt)
		}
	}
}
