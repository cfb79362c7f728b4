// Package schedule executes declarative fault/attack timelines against a
// running cluster: the §3.3 injections (crash, recover, partition, heal,
// message delay, corrupted responses) expressed as data instead of
// hand-rolled sleep-and-inject goroutines. A timeline is a sequence of
// events, each at a time offset; the runner fires them in order and
// stamps a record per firing, which the driver forwards into the run's
// snapshot stream and final report.
package schedule

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Cluster is the injection surface a timeline runs against: the
// platform cluster, which the driver hands to Run.
type Cluster interface {
	// Crash process-kills node i (in-memory state is lost).
	Crash(i int)
	// Recover restarts a killed node from its persisted store; on a
	// node that is not down it is a no-op.
	Recover(i int)
	// PartitionGroups installs an arbitrary multi-way partition;
	// unlisted nodes form an implicit group.
	PartitionGroups(groups [][]int)
	// Heal removes partitions.
	Heal()
	// SetDelay injects extra message delay at the given nodes.
	SetDelay(d time.Duration, nodes ...int)
	// SetCorruptRate makes the given fraction of the given nodes'
	// messages arrive corrupted; zero clears.
	SetCorruptRate(rate float64, nodes ...int)
	// SetLinkFaults installs probabilistic drop/duplicate/reorder on
	// messages the given nodes send (all nodes when none are named);
	// zero probabilities clear the profile.
	SetLinkFaults(drop, dup, reorder float64, nodes ...int)
}

// Action is one named injection step.
type Action struct {
	// Name labels the action in snapshot streams and reports.
	Name string
	// Do applies the action to the cluster.
	Do func(Cluster)
}

// Event is one entry of a timeline: the action fires once the offset At
// has elapsed since the timeline started and every earlier event has
// fired.
type Event struct {
	At  time.Duration
	Act Action
}

// Record stamps one fired event with the actual offset at which it
// executed.
type Record struct {
	Name string
	At   time.Duration
}

// Crash returns the crash-node action.
func Crash(i int) Action {
	return Action{Name: fmt.Sprintf("crash(%d)", i), Do: func(c Cluster) { c.Crash(i) }}
}

// Recover returns the recover-node action.
func Recover(i int) Action {
	return Action{Name: fmt.Sprintf("recover(%d)", i), Do: func(c Cluster) { c.Recover(i) }}
}

// Partition returns the action that splits nodes [0,k) off from the
// rest, [k,N).
func Partition(k int) Action {
	group := make([]int, max(k, 0))
	for i := range group {
		group[i] = i
	}
	return Action{Name: fmt.Sprintf("partition(%d)", k), Do: func(c Cluster) { c.PartitionGroups([][]int{group}) }}
}

// PartitionGroups returns the multi-way partition action.
func PartitionGroups(groups [][]int) Action {
	return Action{
		Name: fmt.Sprintf("partition_groups(%v)", groups),
		Do:   func(c Cluster) { c.PartitionGroups(groups) },
	}
}

// LinkFaults returns the probabilistic link-fault action (zero
// probabilities clear).
func LinkFaults(drop, dup, reorder float64, nodes ...int) Action {
	name := fmt.Sprintf("linkfaults(drop=%.2f,dup=%.2f,reorder=%.2f,%v)", drop, dup, reorder, nodes)
	if drop == 0 && dup == 0 && reorder == 0 {
		name = "linkfaults(clear)"
	}
	return Action{Name: name, Do: func(c Cluster) { c.SetLinkFaults(drop, dup, reorder, nodes...) }}
}

// Heal returns the remove-partition action.
func Heal() Action {
	return Action{Name: "heal", Do: func(c Cluster) { c.Heal() }}
}

// SetDelay returns the inject-message-delay action.
func SetDelay(d time.Duration, nodes ...int) Action {
	return Action{
		Name: fmt.Sprintf("setdelay(%v,%v)", d, nodes),
		Do:   func(c Cluster) { c.SetDelay(d, nodes...) },
	}
}

// SetCorruptRate returns the corrupt-responses action (rate 0 clears).
func SetCorruptRate(rate float64, nodes ...int) Action {
	return Action{
		Name: fmt.Sprintf("setcorruptrate(%v,%v)", rate, nodes),
		Do:   func(c Cluster) { c.SetCorruptRate(rate, nodes...) },
	}
}

// ChaosConfig seeds a randomized fault timeline. The same config always
// generates the same timeline, so a failing chaos run reproduces from
// its printed seed.
type ChaosConfig struct {
	// Seed drives every random decision in the timeline.
	Seed int64
	// Duration is the run length the timeline covers. Faults are only
	// injected during the first ~80%; the tail is a heal-and-recover
	// window so the cluster can converge before invariants are checked.
	Duration time.Duration
	// Nodes is the cluster size.
	Nodes int
	// KillProb is the per-node, per-tick probability of a process kill.
	KillProb float64
	// NetProb is the per-tick probability of starting a network fault
	// (asymmetric partition or probabilistic link faults).
	NetProb float64
}

// Chaos generates a deterministic randomized fault timeline: process
// kills with staggered recoveries, asymmetric partial partitions and
// per-link drop/duplicate/reorder faults, all drawn from the seed. The
// final ~20% of the duration heals the network and recovers every node
// still down, so safety invariants can be checked on a converged
// cluster at the end of the run.
func Chaos(cfg ChaosConfig) []Event {
	if cfg.Nodes <= 0 || cfg.Duration <= 0 {
		return nil
	}
	const tick = 250 * time.Millisecond // the decision cadence
	// No more than a minority is ever down at once, so majority-quorum
	// platforms keep making progress.
	maxDown := (cfg.Nodes - 1) / 2
	rng := rand.New(rand.NewSource(cfg.Seed))
	healAt := cfg.Duration * 4 / 5

	var events []Event
	downUntil := make([]time.Duration, cfg.Nodes) // 0 = up
	var netUntil time.Duration

	downCount := func(t time.Duration) int {
		n := 0
		for _, u := range downUntil {
			if u > t {
				n++
			}
		}
		return n
	}

	for t := tick; t < healAt; t += tick {
		// Process kills: each up node draws independently; recovery is
		// scheduled 2–6 ticks later (capped at the heal window).
		for i := 0; i < cfg.Nodes; i++ {
			if downUntil[i] > t || downCount(t) >= maxDown {
				continue
			}
			if rng.Float64() >= cfg.KillProb {
				continue
			}
			rec := t + time.Duration(2+rng.Intn(5))*tick
			if rec >= healAt {
				rec = healAt
			}
			downUntil[i] = rec
			events = append(events,
				Event{At: t, Act: Crash(i)},
				Event{At: rec, Act: Recover(i)})
		}
		// Network faults: one active profile at a time, cleared 2–5
		// ticks after it starts.
		if t >= netUntil && rng.Float64() < cfg.NetProb {
			clear := t + time.Duration(2+rng.Intn(4))*tick
			if clear >= healAt {
				clear = healAt
			}
			netUntil = clear
			switch rng.Intn(3) {
			case 0:
				// Asymmetric partial partition: a random minority group
				// is split off from the rest.
				k := 1 + rng.Intn((cfg.Nodes+1)/2)
				perm := rng.Perm(cfg.Nodes)[:k]
				sort.Ints(perm)
				events = append(events,
					Event{At: t, Act: PartitionGroups([][]int{perm})},
					Event{At: clear, Act: Heal()})
			case 1:
				// Lossy links at a random subset of senders.
				k := 1 + rng.Intn(cfg.Nodes)
				perm := rng.Perm(cfg.Nodes)[:k]
				sort.Ints(perm)
				drop := 0.05 + 0.25*rng.Float64()
				dup := 0.15 * rng.Float64()
				reorder := 0.30 * rng.Float64()
				events = append(events,
					Event{At: t, Act: LinkFaults(drop, dup, reorder, perm...)},
					Event{At: clear, Act: LinkFaults(0, 0, 0)})
			default:
				// Cluster-wide light loss and reordering.
				events = append(events,
					Event{At: t, Act: LinkFaults(0.02+0.05*rng.Float64(), 0.05, 0.20)},
					Event{At: clear, Act: LinkFaults(0, 0, 0)})
			}
		}
	}
	// Convergence window: clear every fault and bring every node back.
	events = append(events,
		Event{At: healAt, Act: Heal()},
		Event{At: healAt, Act: LinkFaults(0, 0, 0)})
	for i := 0; i < cfg.Nodes; i++ {
		if downUntil[i] > 0 {
			// Re-recovering an already-recovered node is a no-op, so the
			// tail recover is unconditional insurance.
			events = append(events, Event{At: healAt, Act: Recover(i)})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// Run executes the timeline in order against c, treating start as the
// timeline's origin for At offsets. A close of stop aborts the remaining
// events (nil means run to completion). Each firing is reported through
// onFire (if non-nil) and collected into the returned records.
func Run(c Cluster, start time.Time, events []Event, stop <-chan struct{}, onFire func(Record)) []Record {
	var recs []Record
	for _, ev := range events {
		if d := time.Until(start.Add(ev.At)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-stop:
				t.Stop()
				return recs
			case <-t.C:
			}
		} else {
			select {
			case <-stop:
				return recs
			default:
			}
		}
		if ev.Act.Do != nil {
			ev.Act.Do(c)
		}
		rec := Record{Name: ev.Act.Name, At: time.Since(start)}
		recs = append(recs, rec)
		if onFire != nil {
			onFire(rec)
		}
	}
	return recs
}
