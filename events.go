package blockbench

import (
	"time"

	"blockbench/internal/schedule"
)

// Event is one entry of a declarative fault/attack timeline (§3.3 of the
// paper): crash, recover, partition, heal or delay injection at a time
// offset into the run. Attach a timeline to RunConfig.Events and the
// driver executes it, stamping each firing into the snapshot stream and
// the final Report — no hand-rolled sleep-and-inject goroutines.
//
// Events run in order: an event arms only after every earlier one fired,
// so At offsets describe a sequential timeline.
type Event = schedule.Event

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
