package consensus

import (
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/simnet"
)

// Step is a consensus core's one entry point. A core holds all protocol
// state and logic but no clock, lock or goroutine: it is advanced to now
// by one event — a delivered message, or Wake — sends through Context's
// Net, persists through its MetaStore, applies through its Chain, and
// returns the next instant it needs to run even if no message arrives
// (zero: none). A spurious Wake must be harmless.
type Step func(now time.Time, msg simnet.Message) (wake time.Time)

// Wake is the event a core is stepped with when its timer fires or its
// pool admits a transaction: a message of no type from nobody.
var Wake = simnet.Message{}

// Runner is the half of an engine that touches the machine: the only
// mutex (embedded; the engine takes it around reads of core state), the
// only goroutine, and one timer armed at whatever instant the core's
// last step asked for. It is a whole Engine: raft, pbft, poa and the
// sharded gateway embed one and add only what their cores expose.
type Runner struct {
	sync.Mutex
	step    Step
	notify  <-chan struct{} // pool admission signal; nil for none
	timer   *time.Timer
	stop    chan struct{}
	done    chan struct{}
	started atomic.Bool
}

// NewRunner wraps a core's step. notify, if non-nil, wakes the core
// like the timer does.
func NewRunner(step Step, notify <-chan struct{}) *Runner {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Runner{step: step, notify: notify, timer: t,
		stop: make(chan struct{}), done: make(chan struct{})}
}

var _ Engine = (*Runner)(nil)

// Handle steps the core with msg at the current time and re-arms the
// timer. Callable before Start and after Stop (the core still answers;
// only wake-ups need the goroutine). The core tells its own messages
// from anyone else's by payload type.
func (r *Runner) Handle(msg simnet.Message) {
	r.Lock()
	defer r.Unlock()
	now := time.Now()
	r.Arm(now, r.step(now, msg))
}

// Arm sets the timer to fire at wake (zero: never). Handle does it
// after every step; an engine that changes its core's deadlines outside
// a step — under the lock, which the caller holds — does it itself.
func (r *Runner) Arm(now, wake time.Time) {
	if wake.IsZero() {
		r.timer.Stop()
	} else {
		r.timer.Reset(wake.Sub(now))
	}
}

// Start launches the wake-up loop.
func (r *Runner) Start() {
	if r.started.CompareAndSwap(false, true) {
		go r.loop()
	}
}

// Stop halts the loop and waits for it. Stop before Start is a no-op.
func (r *Runner) Stop() {
	if r.started.CompareAndSwap(true, false) {
		close(r.stop)
		<-r.done
	}
}

func (r *Runner) loop() {
	defer close(r.done)
	for {
		r.Handle(Wake) // the first arms the timer
		select {
		case <-r.stop:
			return
		case <-r.timer.C:
		case <-r.notify:
		}
	}
}
