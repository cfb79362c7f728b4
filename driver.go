package blockbench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"blockbench/internal/invariant"
	"blockbench/internal/metrics"
	"blockbench/internal/schedule"
	"blockbench/internal/simnet"
	"blockbench/internal/trace"
	"blockbench/report"
)

// Workload is the paper's IWorkloadConnector: it names the contracts it
// needs and produces the next operation per client.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Contracts lists contract names that must be deployed.
	Contracts() []string
	// Init pre-loads the blockchain (records, accounts, history) before
	// measurement starts.
	Init(c *Cluster, rng *rand.Rand) error
	// Next returns the next operation for the given client. In every run
	// mode it is called from that client's one generator goroutine, so
	// per-client state needs no synchronization; different clients call
	// it concurrently, so state shared across clients does.
	Next(clientID int, rng *rand.Rand) Op
}

// RunConfig parameterizes one driver run (the paper's user-defined
// configuration: number of clients, threads, rate, duration).
type RunConfig struct {
	// Clients is the number of concurrent client processes; client i
	// talks to server i mod N.
	Clients int
	// Threads is the number of sender workers per client and, under
	// Blocking, the client's window of unconfirmed transactions.
	Threads int
	// Rate is the per-client offered load in tx/s (open loop). Zero
	// with Blocking=false means submit as fast as possible.
	Rate float64
	// Blocking switches to closed-loop operation (the paper's latency
	// measurement mode): a client generates its next transaction only
	// once one of its Threads earlier ones has confirmed. Rate is
	// ignored; confirmation and latency mean what they mean open loop.
	Blocking bool
	// Duration is the measurement window.
	Duration time.Duration
	// PollInterval is the confirmation polling period (default 10ms).
	PollInterval time.Duration
	// Bucket is the time-series resolution (default 250ms — the
	// equivalent of the paper's per-second series at 25x time scale).
	// It is also the snapshot-stream frame rate.
	Bucket time.Duration
	// Seed makes workload choices reproducible.
	Seed int64
	// SkipInit suppresses workload preloading (reuse a warm cluster).
	SkipInit bool
	// Events is a declarative fault/attack timeline the driver executes
	// during the run (§3.3 injections). Fired events are stamped into
	// the snapshot stream and the final Report.
	Events []Event
	// TraceSample is the fraction of transactions given a lifecycle
	// trace (per-stage stamps through pool, consensus, execution and
	// confirmation). 0 means the default of 1%; negative disables
	// tracing entirely; 1 traces everything. Sampling is decided once
	// per transaction at submit, so the unsampled fast path costs one
	// atomic load per stamp site.
	TraceSample float64
	// HTTPAddr, when non-empty, serves a per-run ops endpoint on the
	// given listen address for the lifetime of the run: /metrics
	// (Prometheus text format), /debug/pprof/*, /healthz and /traces.
	HTTPAddr string
	// Chaos, when set, generates a seeded randomized fault timeline —
	// process kills with later recovery, asymmetric partitions, lossy
	// links — and appends it to Events. Setting it also turns on
	// CheckInvariants, so a chaos run that breaks safety fails loudly
	// with the seed that reproduces it.
	Chaos *ChaosOptions
	// CheckInvariants runs the always-on safety checks: per-node commit
	// monotonicity sampled every bucket, committed-prefix agreement and
	// cross-shard accounting at the end of the run, plus any invariant
	// the workload itself exposes. Violations land in Report.Invariants.
	// Defaults on whenever Chaos is set.
	CheckInvariants bool
}

// ChaosOptions configures randomized fault injection for one run (the
// -chaos flag). The zero value of a field picks its default; set a
// probability negative to disable that fault axis entirely.
type ChaosOptions struct {
	// Seed drives the fault timeline; 0 uses RunConfig.Seed. The seed is
	// echoed in the Report so any interleaving reproduces exactly.
	Seed int64
	// Kill is the per-tick per-node process-kill probability (default
	// 0.02; ticks are 250ms). Killed nodes recover a few ticks later,
	// and no more than a minority is ever down at once.
	Kill float64
	// Net is the per-tick probability of starting a network fault —
	// an asymmetric minority partition or a lossy/reordering link
	// profile (default 0.05). One network fault is active at a time.
	Net float64
}

// WorkloadInvariants is implemented by workloads that can audit their
// own application-level safety invariants after a run (smallbank's
// replica agreement: every live replica of a shard group reports the
// same balances, for example). The driver calls it once at the
// end of a checked run and merges the violations into the report.
type WorkloadInvariants interface {
	CheckInvariants(c *Cluster) []string
}

func (cfg *RunConfig) fill() {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 10 * time.Millisecond
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = 250 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	if cfg.TraceSample == 0 {
		cfg.TraceSample = 0.01
	}
	cfg.TraceSample = max(cfg.TraceSample, 0) // negative: explicit off
}

// clientState is one client's leg of the submit→confirm pipeline, the
// same in every run mode:
//
//	generator -> submitCh (bounded) -> sender workers -> outstanding -> poller
//
// The generator owns any overflow beyond the channel's capacity, so the
// hot path between generator and senders is a plain channel with no
// shared lock; the mutex guards only the outstanding map, which the
// confirmation poller drains. The paper's Fig 6/18 queue-length metric
// counts every stage: overflow + channel + in-flight + outstanding.
type clientState struct {
	client *Client
	server int // server index, for grouping confirmation pollers

	submitCh chan Op
	// window is the closed-loop pacing source: Threads slots, one taken
	// by the generator before each Next and handed back by whoever
	// retires the transaction. nil unless RunConfig.Blocking.
	window   chan struct{}
	overflow atomic.Int64 // generated ops the channel had no room for
	inflight atomic.Int64 // ops taken by a sender, not yet accepted

	mu          sync.Mutex
	outstanding map[Hash]time.Time // accepted, unconfirmed: id -> accept time
}

// queueLen reads the stages downstream first: an operation leaves one
// stage before it enters the next, so it is counted at most once.
func (cs *clientState) queueLen() int {
	cs.mu.Lock()
	n := len(cs.outstanding)
	cs.mu.Unlock()
	return n + int(cs.inflight.Load()) + len(cs.submitCh) + int(cs.overflow.Load())
}

// release hands a closed-loop window slot back to the generator.
func (cs *clientState) release() {
	if cs.window != nil {
		<-cs.window
	}
}

// Handle is the run handle over one live benchmark run: the driver's
// generator, sender, poller, scheduler and snapshot goroutines behind a
// small observation surface. Snapshots streams one metric frame per
// bucket while the run executes; Wait blocks until the run ends and
// returns the final Report. Cancelling the context passed to Start
// aborts the run — every driver goroutine is torn down, the snapshot
// channel closes, and Wait returns a partial Report covering the window
// measured so far.
type Handle struct {
	cluster  *Cluster
	workload Workload
	cfg      RunConfig

	start time.Time
	end   time.Time

	states []*clientState

	submitted    atomic.Uint64
	committed    atomic.Uint64
	submitErrors atomic.Uint64
	failovers    atomic.Uint64
	latency      metrics.Histogram
	queueSeries  *metrics.TimeSeries
	commitSeries *metrics.TimeSeries

	netBefore      simnet.Stats
	countersBefore map[string]uint64
	startHeight    uint64

	tracer    *trace.Tracer
	ops       *opsServer
	inv       *invariant.Checker // nil when invariant checking is off
	chaosSeed int64

	snapshots chan Snapshot
	stop      chan struct{} // closed by the controller: teardown begins
	done      chan struct{}
	aborted   atomic.Bool

	// snapshot-emitter-only state (the final frame is emitted after the
	// emitter goroutine has exited, so no lock is needed).
	seq           int
	lastCommitted uint64

	mu      sync.Mutex
	events  []report.EventRecord // every fired event, for the Report
	pending []string             // fired since the last frame, for Snapshots

	reportOut *Report
}

// Start launches a workload against a started cluster and returns the
// run handle. Workload preloading (unless cfg.SkipInit) happens
// synchronously before the measurement window opens; the run then ends
// when cfg.Duration elapses or ctx is cancelled, whichever comes first.
func Start(ctx context.Context, c *Cluster, w Workload, cfg RunConfig) (*Handle, error) {
	cfg.fill()
	if !cfg.SkipInit {
		if err := w.Init(c, rand.New(rand.NewSource(cfg.Seed))); err != nil {
			return nil, fmt.Errorf("blockbench: workload init: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Expand the chaos options into a concrete seeded fault timeline and
	// append it to the declarative event list — from here on chaos is
	// just more scheduled events, stamped into snapshots like any other.
	var chaosSeed int64
	if cfg.Chaos != nil {
		chaosSeed = cfg.Chaos.Seed
		if chaosSeed == 0 {
			chaosSeed = cfg.Seed
		}
		kill, net := cfg.Chaos.Kill, cfg.Chaos.Net
		if kill == 0 {
			kill = 0.02
		}
		if net == 0 {
			net = 0.05
		}
		timeline := schedule.Chaos(schedule.ChaosConfig{
			Seed:     chaosSeed,
			Duration: cfg.Duration,
			Nodes:    c.Size(),
			KillProb: max(kill, 0),
			NetProb:  max(net, 0),
		})
		cfg.Events = append(append([]Event(nil), cfg.Events...), timeline...)
		cfg.CheckInvariants = true
	}

	// Arm the tracer after preloading, so init traffic is never traced
	// and a reused cluster starts each run with fresh stage histograms.
	tracer := c.inner.Tracer()
	tracer.Reset(cfg.TraceSample)

	start := time.Now()
	r := &Handle{
		cluster:  c,
		workload: w,
		cfg:      cfg,
		start:    start,
		end:      start.Add(cfg.Duration),

		queueSeries:  metrics.NewTimeSeries(start, cfg.Bucket, true),
		commitSeries: metrics.NewTimeSeries(start, cfg.Bucket, false),

		netBefore:      c.inner.Net.Stats(),
		countersBefore: c.inner.Counters(),
		startHeight:    c.Height(),
		tracer:         tracer,
		chaosSeed:      chaosSeed,

		// Sized for every bucket frame plus event-bearing frames and the
		// final partial frame, so a consumer that drains keeps everything
		// even if it lags a little; a consumer that never reads just
		// loses the overflow (emission never blocks the run).
		snapshots: make(chan Snapshot, int(cfg.Duration/cfg.Bucket)+len(cfg.Events)+16),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if cfg.CheckInvariants {
		r.inv = invariant.New()
	}

	r.states = make([]*clientState, cfg.Clients)
	for i := range r.states {
		client := c.Client(i)
		r.states[i] = &clientState{
			client:      client,
			server:      client.Server(),
			submitCh:    make(chan Op, cfg.Threads*4),
			outstanding: make(map[Hash]time.Time),
		}
		if cfg.Blocking {
			r.states[i].window = make(chan struct{}, cfg.Threads)
		}
	}

	if cfg.HTTPAddr != "" {
		ops, err := startOps(cfg.HTTPAddr, r)
		if err != nil {
			return nil, fmt.Errorf("blockbench: ops server: %w", err)
		}
		r.ops = ops
	}

	var workers sync.WaitGroup
	r.runClients(&workers)
	r.runPollers(&workers)
	if len(cfg.Events) > 0 {
		workers.Add(1)
		go func() {
			defer workers.Done()
			schedule.Run(c.inner, start, cfg.Events, r.stop, r.recordEvent)
		}()
	}
	workers.Add(1)
	go r.snapshotLoop(&workers)

	// Controller: the window ends at the deadline in every mode, or on
	// cancellation; then teardown, the final frame, the report, waiters.
	go func() {
		timer := time.NewTimer(time.Until(r.end))
		select {
		case <-ctx.Done():
			r.aborted.Store(true)
		case <-timer.C:
		}
		timer.Stop()
		close(r.stop)
		workers.Wait()
		r.emitSnapshot(time.Now())
		r.finish()
		r.ops.close() // nil-safe; endpoints serve until the report exists
		close(r.snapshots)
		close(r.done)
	}()
	return r, nil
}

// Run executes a workload against a started cluster and reports the
// paper's metrics: the one-call form of Start, which drains the
// snapshot stream and waits the run out.
func Run(c *Cluster, w Workload, cfg RunConfig) (*Report, error) {
	run, err := Start(context.Background(), c, w, cfg)
	if err != nil {
		return nil, err
	}
	for range run.Snapshots() {
	}
	return run.Wait()
}

// Snapshots returns the live metric stream: one frame per bucket (plus a
// final partial frame), closed when the run ends. The driver never
// blocks on this channel; a consumer that stops reading only loses
// frames beyond the channel's buffer.
func (r *Handle) Snapshots() <-chan Snapshot { return r.snapshots }

// Wait blocks until the run has ended — duration elapsed or context
// cancelled — and every driver goroutine has been torn down, then
// returns the final Report. After a cancelled context the Report is
// partial (Report.Aborted is set) and the error is still nil: an abort
// is a legitimate way to end a run early.
func (r *Handle) Wait() (*Report, error) {
	<-r.done
	return r.reportOut, nil
}

// recordEvent stamps one fired schedule event for both the snapshot
// stream and the final report.
func (r *Handle) recordEvent(rec schedule.Record) {
	r.mu.Lock()
	r.events = append(r.events, report.EventRecord{Name: rec.Name, At: rec.At})
	r.pending = append(r.pending, rec.Name)
	r.mu.Unlock()
}

// snapshotLoop emits one frame per bucket until teardown.
func (r *Handle) snapshotLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	tick := time.NewTicker(r.cfg.Bucket)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-tick.C:
			r.emitSnapshot(now)
		}
	}
}

// emitSnapshot assembles and (non-blockingly) publishes one frame.
func (r *Handle) emitSnapshot(now time.Time) {
	if r.inv != nil {
		// Per-frame safety sampling: commit indexes must stay monotone on
		// every live node that hasn't restarted since the last frame.
		r.inv.ObserveHeights(r.cluster.inner)
	}
	queue := 0
	for _, cs := range r.states {
		queue += cs.queueLen()
	}
	r.mu.Lock()
	events := r.pending
	r.pending = nil
	r.mu.Unlock()

	committed := r.committed.Load()
	snap := Snapshot{
		Seq:               r.seq,
		Elapsed:           now.Sub(r.start),
		Submitted:         r.submitted.Load(),
		Committed:         committed,
		SubmitErrors:      r.submitErrors.Load(),
		CommittedInBucket: committed - r.lastCommitted,
		QueueDepth:        queue,
		LatencyMean:       r.latency.Mean(),
		LatencyP50:        r.latency.Quantile(0.50),
		LatencyP99:        r.latency.Quantile(0.99),
		Counters:          counterDelta(r.cluster.inner.Counters(), r.countersBefore),
		Events:            events,
		Stages:            r.tracer.Summaries(),
	}
	snap.Counters["driver.failovers"] = r.failovers.Load()
	r.seq++
	r.lastCommitted = committed
	select {
	case r.snapshots <- snap:
	default: // consumer not draining; drop rather than stall the run
	}
}

// finish computes the final Report after every worker goroutine exited.
func (r *Handle) finish() {
	elapsed := time.Since(r.start)
	c := r.cluster
	netAfter := c.inner.Net.Stats()
	total, mainChain := c.ForkStats()
	aborted := r.aborted.Load()

	// Throughput is normalized over the configured window; an aborted
	// run is normalized over the window it actually measured.
	window := r.cfg.Duration
	if aborted && elapsed < window {
		window = elapsed
	}
	committed := r.committed.Load()

	rep := &Report{
		Platform:     string(c.Kind()),
		Workload:     r.workload.Name(),
		Nodes:        c.Size(),
		Clients:      r.cfg.Clients,
		Duration:     elapsed,
		Aborted:      aborted,
		Submitted:    r.submitted.Load(),
		SubmitErrors: r.submitErrors.Load(),
		Committed:    committed,
		Throughput:   float64(committed) / window.Seconds(),
		LatencyMean:  r.latency.Mean(),
		LatencyP50:   r.latency.Quantile(0.50),
		LatencyP90:   r.latency.Quantile(0.90),
		LatencyP99:   r.latency.Quantile(0.99),
		QueueSeries:  r.queueSeries.Values(),
		CommitSeries: r.commitSeries.Values(),
		Bucket:       r.cfg.Bucket,
		Blocks:       c.Height() - r.startHeight,
		ForkTotal:    total,
		ForkMain:     mainChain,
		BytesSent:    netAfter.BytesSent - r.netBefore.BytesSent,
		MsgsSent:     netAfter.MessagesSent - r.netBefore.MessagesSent,
		MsgsDropped:  netAfter.MessagesDropped - r.netBefore.MessagesDropped,
		Counters:     counterDelta(c.inner.Counters(), r.countersBefore),
		Events:       r.events, // the scheduler has exited: no more writers
		Stages:       r.tracer.Summaries(),
		Traces:       r.tracer.Recent(),
	}
	rep.Counters["driver.failovers"] = r.failovers.Load()

	if r.inv != nil {
		r.inv.ObserveHeights(c.inner)
		// Prefix agreement stops short of the confirmation depth, plus a
		// reorg margin on forking chains: PoW nodes legitimately disagree
		// near the tip while a reorg is in flight.
		depth := c.inner.ConfirmationDepth()
		if c.inner.SupportsForks() {
			depth += 4
		}
		r.inv.CheckAgreement(c.inner, depth)
		// Absolute counters, not the run's delta: a 2PC begun before the
		// run and resolved in it would read as a commit without its tx.
		counters := c.inner.Counters()
		r.inv.CheckXShard(counters)
		r.inv.CheckApply(counters, c.inner)
		if wi, ok := r.workload.(WorkloadInvariants); ok {
			for _, v := range wi.CheckInvariants(c) {
				r.inv.Add(v)
			}
		}
		rep.Invariants = r.inv.Violations()
		rep.ChaosSeed = r.chaosSeed
	}

	rep.LatencyCDFValues, rep.LatencyCDFFractions = r.latency.CDF(40)
	r.reportOut = rep
}

// counterDelta returns after-before per key, keeping zero-valued keys so
// consumers can see which counters a platform exposes at all. Gauge
// keys (metrics.GaugeKey: configuration levels like pool sizes) pass
// through undifferenced — their delta over a run is always zero, which
// would hide the configured value from every frame.
func counterDelta(after, before map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(after))
	for k, v := range after {
		if metrics.GaugeKey(k) {
			out[k] = v
		} else if b := before[k]; v >= b {
			out[k] = v - b
		} else {
			out[k] = 0
		}
	}
	return out
}

// submitWithRetry is the senders' submission core: it pushes one
// operation through Client.Send, backing off exponentially while the
// server reports busy, and gives up when stop closes. After two
// consecutive failures it fails the client over to the next server not
// currently process-killed — a crashed server rejects every RPC
// instantly, so without failover its submit threads would spin until
// the node recovers. Rotations are counted as driver.failovers.
func (r *Handle) submitWithRetry(cl *Client, op Op) (Hash, bool) {
	backoff := time.Millisecond
	errs := 0
	for {
		id, err := cl.Send(op)
		if err == nil {
			return id, true
		}
		// Server busy (Parity's admission cap) or down: the operation
		// stays with this sender until accepted or the run ends.
		r.submitErrors.Add(1)
		if errs++; errs >= 2 && r.failoverClient(cl) {
			errs = 0
		}
		// The jitter keeps a client's failed-over sender threads from
		// re-converging on the next server in lockstep.
		select {
		case <-r.stop:
			return Hash{}, false
		case <-time.After(backoff + time.Duration(rand.Int63n(int64(backoff)))):
		}
		if backoff < 8*time.Millisecond {
			backoff *= 2
		}
	}
}

// failoverClient rotates the client to the next server that is not
// process-killed, reporting whether it moved. Partitioned servers look
// up but keep erroring, so the rotation simply fires again two failures
// later and walks past them.
func (r *Handle) failoverClient(cl *Client) bool {
	size := r.cluster.Size()
	cur := cl.Server()
	for k := 1; k < size; k++ {
		next := (cur + k) % size
		if r.cluster.Down(next) {
			continue
		}
		cl.Failover(next)
		r.failovers.Add(1)
		return true
	}
	return false
}

// runClients starts every client's pipeline: one generator feeding the
// bounded submit channel and Threads sender workers draining it.
func (r *Handle) runClients(wg *sync.WaitGroup) {
	for i, cs := range r.states {
		wg.Add(1 + r.cfg.Threads)
		go r.generate(wg, i, cs)
		for t := 0; t < r.cfg.Threads; t++ {
			go r.send(wg, cs)
		}
	}
}

// generate is client i's generator, the only caller of Workload.Next
// for that client. The run mode selects nothing but its pacing source:
// a ticker (Rate > 0), the closed-loop window (Blocking), or neither —
// then the bounded channel's back-pressure paces it.
func (r *Handle) generate(wg *sync.WaitGroup, i int, cs *clientState) {
	defer wg.Done()
	cfg, w, stop := r.cfg, r.workload, r.stop
	gen := rand.New(rand.NewSource(cfg.Seed + int64(i)*7919))
	var tick <-chan time.Time // nil unless paced
	if cfg.Rate > 0 && !cfg.Blocking {
		t := time.NewTicker(time.Duration(float64(time.Second) / cfg.Rate))
		defer t.Stop()
		tick = t.C
	}
	var backlog []Op
	for {
		if tick != nil || cs.window != nil {
			select {
			case <-stop:
				return
			case now := <-tick:
				if now.After(r.end) {
					return
				}
			case cs.window <- struct{}{}:
			}
		}
		op := w.Next(i, gen)
		if tick == nil {
			// The bounded channel is the standing queue. Closed loop
			// never fills it: the window is smaller.
			select {
			case cs.submitCh <- op:
				continue
			case <-stop:
				return
			}
		}
		// Paced: one operation per tick, sent at once when nothing is
		// queued before it. When the channel is full (offered load
		// above capacity) ops pile up in the generator-owned backlog,
		// which is what the paper's queue-length figures measure
		// growing without bound.
		if len(backlog) == 0 {
			select {
			case cs.submitCh <- op:
				continue // the backlog stays empty: overflow is already 0
			default:
			}
		}
		backlog = append(backlog, op)
		for len(backlog) > 0 {
			select {
			case cs.submitCh <- backlog[0]:
				backlog = backlog[1:]
				continue
			default:
			}
			break
		}
		if len(backlog) == 0 {
			backlog = nil // let the drained backlog be reclaimed
		}
		cs.overflow.Store(int64(len(backlog)))
	}
}

// send is one sender worker: it submits what the generator queued and
// parks each accepted transaction in outstanding, stamped with the
// accept time the latency clock starts from.
func (r *Handle) send(wg *sync.WaitGroup, cs *clientState) {
	defer wg.Done()
	for {
		select {
		case <-r.stop:
			return
		case op := <-cs.submitCh:
			cs.inflight.Add(1)
			id, ok := r.submitWithRetry(cs.client, op)
			cs.inflight.Add(-1)
			if !ok {
				cs.release()
				return
			}
			r.submitted.Add(1)
			cs.mu.Lock()
			cs.outstanding[id] = time.Now()
			cs.mu.Unlock()
		}
	}
}

// runPollers starts the confirmation pollers, batched per server: every
// client on a node shares one BlocksFrom stream instead of issuing its
// own copy of the same RPC (the paper's getLatestBlock(h) poller).
func (r *Handle) runPollers(wg *sync.WaitGroup) {
	byNode := make(map[int][]*clientState)
	for _, cs := range r.states {
		byNode[cs.server] = append(byNode[cs.server], cs)
	}
	for _, group := range byNode {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var polledTo uint64
			var found []confirmation // pollNode's scratch
			tick := time.NewTicker(r.cfg.PollInterval)
			defer tick.Stop()
			for {
				select {
				case <-r.stop:
					return
				case now := <-tick.C:
					polledTo = r.pollNode(group, polledTo, now, &found)
					for _, cs := range group {
						r.queueSeries.Sample(now, float64(cs.queueLen()))
					}
				}
			}
		}()
	}
}

// pollNode advances one server's confirmation polling: a single
// BlocksFrom batch — blocks ConfirmationDepth deep, plus the sharded
// gateway's remote commits — is matched against the outstanding set of
// every client attached to that server. It is the one confirm site: in
// every mode a transaction commits when poll tick `now` finds it here.
// found is the calling poller's scratch, reused from tick to tick.
func (r *Handle) pollNode(group []*clientState, from uint64, now time.Time, found *[]confirmation) uint64 {
	blocks, err := group[0].client.BlocksFrom(from)
	if err != nil {
		return from
	}
	for _, b := range blocks {
		from = max(from, b.Number)
		for _, cs := range group {
			mine := (*found)[:0]
			cs.mu.Lock()
			for _, id := range b.TxIDs {
				if t0, ok := cs.outstanding[id]; ok {
					delete(cs.outstanding, id)
					mine = append(mine, confirmation{id, t0})
				}
			}
			cs.mu.Unlock()
			*found = mine
			for _, c := range mine {
				r.latency.Observe(now.Sub(c.t0))
				r.committed.Add(1)
				r.commitSeries.Sample(now, 1)
				r.tracer.Stamp(c.id, trace.StageConfirm)
				cs.release()
			}
		}
	}
	return from
}

// confirmation is a transaction pollNode found on a chain: its id and
// the time its client's submit was accepted.
type confirmation struct {
	id Hash
	t0 time.Time
}
