package blockbench

import (
	"context"
	"time"

	"blockbench/internal/schedule"
	"blockbench/report"
)

// Event is one entry of a declarative fault/attack timeline (§3.3 of the
// paper): crash, recover, partition, heal or delay injection, gated on a
// time offset into the run and/or an observed-state trigger. Attach a
// timeline to RunConfig.Events and the driver executes it, stamping each
// firing into the snapshot stream and the final Report — no hand-rolled
// sleep-and-inject goroutines.
//
// Events run in order: an event arms only after every earlier one fired,
// so At offsets and triggers describe a sequential timeline.
type Event = schedule.Event

// EventTrigger gates an event on observed cluster state instead of (or
// in addition to) wall-clock time; see WhenHeightAtLeast and
// WhenGrowthAtLeast.
type EventTrigger = schedule.Trigger

// EventRecord is the stamped record of one fired event: its name and the
// actual offset into the run at which it executed.
type EventRecord = report.EventRecord

// CrashNode schedules a process kill of node i at offset at into the
// run: consensus state, pool and uncommitted ledger tail are lost; only
// the persisted store survives.
func CrashNode(at time.Duration, node int) Event {
	return Event{At: at, Act: schedule.Crash(node)}
}

// RecoverNode schedules the restart of a killed node from its persisted
// store.
func RecoverNode(at time.Duration, node int) Event {
	return Event{At: at, Act: schedule.Recover(node)}
}

// PartitionGroups schedules an arbitrary (possibly asymmetric)
// multi-way partition; nodes not listed in any group form an implicit
// group of their own.
func PartitionGroups(at time.Duration, groups [][]int) Event {
	return Event{At: at, Act: schedule.PartitionGroups(groups)}
}

// LinkChaos schedules probabilistic drop/duplicate/reorder faults on
// messages sent by the given nodes (all nodes when none are named);
// zero probabilities clear the profile.
func LinkChaos(at time.Duration, drop, dup, reorder float64, nodes ...int) Event {
	return Event{At: at, Act: schedule.LinkFaults(drop, dup, reorder, nodes...)}
}

// Partition schedules a network split into [0,k) and [k,N) — the
// double-spending / eclipse attack setup.
func Partition(at time.Duration, k int) Event {
	return Event{At: at, Act: schedule.Partition(k)}
}

// Heal schedules the removal of any partition.
func Heal(at time.Duration) Event {
	return Event{At: at, Act: schedule.Heal()}
}

// SetDelay schedules extra message delay d at the given nodes.
func SetDelay(at time.Duration, d time.Duration, nodes ...int) Event {
	return Event{At: at, Act: schedule.SetDelay(d, nodes...)}
}

// WhenHeightAtLeast gates an event until every listed node (all nodes
// when none are listed) reaches the absolute chain height target.
func WhenHeightAtLeast(target uint64, nodes ...int) EventTrigger {
	return schedule.HeightAtLeast(target, nodes...)
}

// WhenGrowthAtLeast gates an event until every listed node has grown
// delta blocks past the highest height observed in the cluster when the
// event armed — deterministic phase changes on chains whose growth rate
// varies with the host (PoW mining).
func WhenGrowthAtLeast(delta uint64, nodes ...int) EventTrigger {
	return schedule.GrowthAtLeast(delta, nodes...)
}

// ExecuteEvents runs an event timeline to completion against the cluster
// outside of a driver run (fork and attack scenarios that measure chain
// state rather than throughput). It blocks until every event has fired
// or ctx is done, and returns the records of the events that fired.
func (c *Cluster) ExecuteEvents(ctx context.Context, events []Event) []EventRecord {
	recs := schedule.Run(c, time.Now(), events, 5*time.Millisecond, ctx.Done(), nil)
	out := make([]EventRecord, len(recs))
	for i, rec := range recs {
		out[i] = EventRecord{Name: rec.Name, At: rec.At}
	}
	return out
}
