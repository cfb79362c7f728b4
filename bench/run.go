package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"blockbench"
)

// Phase lengths. The measured window (-seconds) is one paced phase for
// the end-to-end run and three equal phases (paced, paced traced, peak)
// for the per-layer run; everything else is fixed.
const (
	warmup     = 2 * time.Second
	drainLimit = 2 * time.Second
	// pollInterval is the driver's confirmation polling period. The
	// product default is 10 ms; PBFT proposes on a 15 ms ticker, and two
	// commensurate tickers keep one phase offset for a whole run, which
	// moved smallbank-hyperledger's p50 by up to 2.5 ms between otherwise
	// identical runs. 7 ms shares no factor with the 10, 15 and 20 ms
	// timers of the consensus engines, so every run sweeps all offsets.
	pollInterval = 7 * time.Millisecond
	pacedBucket  = time.Second
	peakBucket   = 250 * time.Millisecond
	peakDropped  = 4 // leading peak frames (1 s) left out of driver.peak_tps
	setupRepeats = 3 // clusters built per run; setup_s is the median
	spotReads    = 64
	// lostLimit is the share of submitted transactions that may be
	// missing from the chains after the drain before the run is reported
	// incorrect, and offeredFloor the share of due operations the
	// generator must at least have submitted. The floor is low on purpose:
	// the generator is a ticker that drops ticks when the host stalls (a
	// one-second freeze of the shared VM cost one run 13% of its load),
	// which makes a run less comparable, not wrong; driver.offered_ratio
	// reports it.
	lostLimit    = 0.01
	offeredFloor = 0.5
)

// phaseWorkload wraps the workload for one driver run on a shared
// cluster. It salts each operation's gas limit with the phase number:
// the driver builds fresh clients (nonce 1, 2, ...) for every run, so two
// runs of a constant operation (cpuheavy's sort) on one cluster would
// otherwise produce byte-identical transactions, which the pool drops as
// duplicates. The gas limit is a cap, not a cost, so behaviour is
// unchanged.
type phaseWorkload struct {
	blockbench.Workload
	salt uint64
}

func (p *phaseWorkload) Next(client int, rng *rand.Rand) blockbench.Op {
	op := p.Workload.Next(client, rng)
	if op.GasLimit == 0 {
		op.GasLimit = blockbench.DefaultGasLimit
	}
	op.GasLimit += p.salt
	return op
}

// CheckInvariants forwards the wrapped workload's own safety audit
// (smallbank's replica agreement) to the driver.
func (p *phaseWorkload) CheckInvariants(c *blockbench.Cluster) []string {
	if wi, ok := p.Workload.(blockbench.WorkloadInvariants); ok {
		return wi.CheckInvariants(c)
	}
	return nil
}

// usage is the process-wide resource reading taken at phase edges only
// (ReadMemStats stops the world).
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// heapBytes reads the live-object heap size without stopping the world.
func heapBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// chainWatcher counts distinct transaction ids on the confirmed chains
// of every server the clients talk to, through Client.BlocksFrom — the
// benchmark's own check of what the driver reports as committed. A
// sharded cluster has one chain per server group, and a cross-shard
// transaction appears on several, hence the set.
type chainWatcher struct {
	clients []*blockbench.Client // one per distinct server
	cursor  []uint64
	seen    map[blockbench.Hash]struct{}
}

func newChainWatcher(c *blockbench.Cluster, clients int) *chainWatcher {
	w := &chainWatcher{seen: make(map[blockbench.Hash]struct{})}
	servers := make(map[int]bool)
	for i := 0; i < clients; i++ {
		cl := c.Client(i)
		if !servers[cl.Server()] {
			servers[cl.Server()] = true
			w.clients = append(w.clients, cl)
			w.cursor = append(w.cursor, 0)
		}
	}
	return w
}

// poll folds every block above the cursors into the seen set and
// returns how many ids are new.
func (w *chainWatcher) poll() (int, error) {
	fresh := 0
	for i, cl := range w.clients {
		blocks, err := cl.BlocksFrom(w.cursor[i])
		if err != nil {
			return fresh, fmt.Errorf("BlocksFrom(%d) on server %d: %w", w.cursor[i], cl.Server(), err)
		}
		for _, b := range blocks {
			if b.Number > w.cursor[i] {
				w.cursor[i] = b.Number
			}
			fresh += w.fold(b.TxIDs)
		}
	}
	return fresh, nil
}

// fold adds ids to the seen set and returns how many were new.
func (w *chainWatcher) fold(ids []blockbench.Hash) int {
	fresh := 0
	for _, id := range ids {
		if _, ok := w.seen[id]; !ok {
			w.seen[id] = struct{}{}
			fresh++
		}
	}
	return fresh
}

// drain polls until `want` new ids are on chain or the limit passes,
// and returns the number of new ids seen.
func (w *chainWatcher) drain(want uint64, limit time.Duration) (uint64, error) {
	deadline := time.Now().Add(limit)
	var got uint64
	for {
		n, err := w.poll()
		if err != nil {
			return got, err
		}
		got += uint64(n)
		if got >= want || time.Now().After(deadline) {
			return got, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// live is one built and started cluster.
type live struct {
	spec    spec
	cluster *blockbench.Cluster
	base    blockbench.Workload
	watch   *chainWatcher
	dataDir string
	phase   uint64 // salts handed out so far
}

func (l *live) nextPhase() *phaseWorkload {
	l.phase++
	return &phaseWorkload{Workload: l.base, salt: l.phase}
}

// settle waits, on the sharded platform, until every coordinated
// cross-shard transaction is resolved in the gateways' counters. A
// transaction is visible on its chains a moment before its coordinator
// counts the commit; a phase that started in that moment would see a
// commit without its coordination and report the product's accounting
// invariant broken.
func (l *live) settle() {
	inner := l.cluster.Inner()
	for deadline := time.Now().Add(drainLimit); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		c := inner.Counters()
		if c["xshard.commits"]+c["xshard.aborts"] >= c["xshard.txs"] {
			return
		}
	}
}

func (l *live) stop() {
	l.cluster.Stop()
	if l.dataDir != "" {
		// Leftover LSM files only cost disk; the run's numbers are in.
		_ = os.RemoveAll(l.dataDir)
	}
}

// setUp builds a cluster, preloads it by direct append (Init runs before
// Start, so no consensus is involved) and starts it, and returns how
// long that took.
func setUp(rec *recorder, parent int, s spec, seed int64, outDir string, serial int) (*live, time.Duration, error) {
	setupSpan := rec.begin("setup", s.Name, parent)
	l := &live{spec: s}
	if s.LSM {
		l.dataDir = filepath.Join(outDir, "data", fmt.Sprintf("%s-%d-%d", s.Name, os.Getpid(), serial))
		if err := os.MkdirAll(l.dataDir, 0o755); err != nil {
			return nil, 0, err
		}
	}
	w, err := s.newWorkload()
	if err != nil {
		return nil, 0, err
	}
	l.base = w

	sp := rec.begin("cluster.new", s.Name, setupSpan)
	c, err := blockbench.NewCluster(s.clusterConfig(w.Contracts(), l.dataDir), s.Clients)
	rec.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("NewCluster: %w", err)
	}
	l.cluster = c

	sp = rec.begin("workload.init", s.Name, setupSpan)
	err = w.Init(c, rand.New(rand.NewSource(seed)))
	rec.end(sp)
	if err != nil {
		l.stop()
		return nil, 0, fmt.Errorf("workload init: %w", err)
	}

	sp = rec.begin("cluster.start", s.Name, setupSpan)
	c.Start()
	rec.end(sp)
	took := rec.end(setupSpan)
	// Absorb the preloaded blocks, so that only driver traffic counts as
	// new from here on.
	l.watch = newChainWatcher(c, s.Clients)
	if _, err := l.watch.poll(); err != nil {
		l.stop()
		return nil, 0, err
	}
	return l, took, nil
}

// prepare sets the cluster up `repeats` times (stopping all but the
// last) and warms the last one up at the paced rate for a fixed time,
// which also covers the leaderless first 300-600 ms after Start. It
// returns the live cluster and setup_s: the median set-up time plus the
// warm-up, which is paid once and, being a fixed duration, would only
// repeat the same number.
func prepare(rec *recorder, root int, s spec, seed int64, outDir string, repeats int) (*live, value, error) {
	var l *live
	var setups []float64
	for i := 0; i < repeats; i++ {
		if l != nil {
			l.stop() // throwaway cluster of an earlier repeat
		}
		var took time.Duration
		var err error
		if l, took, err = setUp(rec, root, s, seed, outDir, i); err != nil {
			return nil, value{}, err
		}
		setups = append(setups, took.Seconds())
	}
	sp := rec.begin("warmup", s.Name, root)
	_, err := l.runPaced(warmup, seed+1, -1)
	warm := rec.end(sp)
	if err != nil {
		l.stop()
		return nil, value{}, fmt.Errorf("warm-up: %w", err)
	}
	return l, value{V: median(setups) + warm.Seconds(), N: len(setups)}, nil
}

// paced is what one open-loop paced phase measured.
type paced struct {
	rep      *blockbench.Report
	due      uint64 // clients x rate x duration
	onChain  uint64 // distinct new ids on the chains after the drain
	used     usage  // process CPU and allocation over the window
	queue    []float64
	heapPeak uint64
}

func (p *paced) perTx(total float64) value {
	return withN(ratio(total, float64(p.rep.Committed)), int(p.rep.Committed))
}

// runPaced drives one open-loop phase at the workload's paced rate.
func (l *live) runPaced(d time.Duration, seed int64, traceSample float64) (*paced, error) {
	s := l.spec
	// The driver's generator ticks every 1/rate from the start; ending
	// the window half an interval after the last due tick keeps that
	// tick from racing the deadline, so `due` is exact.
	perClient := uint64(s.Rate * d.Seconds())
	d = seconds((float64(perClient) + 0.5) / s.Rate)
	before := readUsage()
	run, err := blockbench.Start(context.Background(), l.cluster, l.nextPhase(), blockbench.RunConfig{
		Clients: s.Clients, Threads: 1, Rate: s.Rate, Duration: d,
		PollInterval: pollInterval, Bucket: pacedBucket, Seed: seed, SkipInit: true,
		TraceSample: traceSample, CheckInvariants: true,
	})
	if err != nil {
		return nil, err
	}
	out := &paced{due: uint64(s.Clients) * perClient}
	for snap := range run.Snapshots() {
		out.queue = append(out.queue, float64(snap.QueueDepth))
		if h := heapBytes(); h > out.heapPeak {
			out.heapPeak = h
		}
	}
	out.rep, err = run.Wait()
	after := readUsage()
	if err != nil {
		return nil, err
	}
	out.used = usage{cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs, bytes: after.bytes - before.bytes}
	out.onChain, err = l.watch.drain(out.rep.Submitted, drainLimit)
	if err == nil {
		l.settle()
	}
	return out, err
}

// runPeak drives the saturation phase and returns its full-length
// frames.
func (l *live) runPeak(d time.Duration, seed int64) ([]frame, *blockbench.Report, error) {
	s := l.spec
	run, err := blockbench.Start(context.Background(), l.cluster, l.nextPhase(), blockbench.RunConfig{
		Clients: s.Clients, Threads: s.PeakThreads, Duration: d,
		PollInterval: pollInterval, Bucket: peakBucket, Seed: seed, SkipInit: true,
		TraceSample: -1, Blocking: s.PeakBlocking,
	})
	if err != nil {
		return nil, nil, err
	}
	var frames []frame
	full := int(d / peakBucket)
	for snap := range run.Snapshots() {
		// The driver appends one short frame at teardown; only the
		// ticker's full-length frames are rate samples.
		if snap.Seq < full {
			frames = append(frames, frame{At: snap.Elapsed, Committed: snap.Committed})
		}
	}
	rep, err := run.Wait()
	return frames, rep, err
}

// spotRead checks, on the ioread workload, that tuples written at set-up
// read back as the 100-byte values the contract stored. The ioheavy
// contract's own read method returns nothing, so Client.Query cannot
// carry the values; the check reads contract storage at the head state
// of every client's server instead.
func (l *live) spotRead(seed int64) (checked int, problems []string) {
	rng := rand.New(rand.NewSource(seed))
	inner := l.cluster.Inner()
	for _, cl := range l.watch.clients {
		h, err := cl.Height()
		if err != nil {
			return checked, append(problems, fmt.Sprintf("ioread spot-read: Height on server %d: %v", cl.Server(), err))
		}
		db, err := inner.Chain(cl.Server()).StateAt(h)
		if err != nil {
			return checked, append(problems, fmt.Sprintf("ioread spot-read: state at %d on server %d: %v", h, cl.Server(), err))
		}
		for i := 0; i < spotReads/len(l.watch.clients); i++ {
			k := uint64(rng.Intn(ioReadSet))
			got := db.GetState("ioheavy", ioKey(k))
			checked++
			if !bytes.Equal(got, ioExpected(k)) {
				problems = append(problems, fmt.Sprintf("ioread spot-read: tuple %d on server %d: got %d bytes %x", k, cl.Server(), len(got), got))
			}
		}
	}
	return checked, problems
}

// result is one workload's run: the metric values, the contract's
// attempted/failed counts and everything that made the run incorrect.
type result struct {
	Workload  string
	Metrics   map[string]value
	Attempted uint64
	Failed    uint64
	Problems  []string
	Elapsed   time.Duration
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

// checkPaced applies the correctness gate to one paced phase and folds
// its operations into the attempted/failed counts. `attempted` is what
// the driver submitted and `failed` what of that never reached a chain,
// so a healthy run fails nothing; operations the generator never
// produced show in driver.offered_ratio and driver.failed_share.
func (r *result) checkPaced(label string, p *paced) {
	for _, v := range p.rep.Invariants {
		r.Problems = append(r.Problems, label+": invariant: "+v)
	}
	if p.rep.SubmitErrors > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%s: %d submit errors on a healthy run", label, p.rep.SubmitErrors))
	}
	if p.rep.Committed == 0 {
		r.Problems = append(r.Problems, label+": nothing committed")
	}
	lost := missing(p.rep.Submitted, p.onChain)
	if float64(lost) > lostLimit*float64(p.rep.Submitted) {
		r.Problems = append(r.Problems, fmt.Sprintf("%s: %d of %d submitted transactions are on no chain", label, lost, p.rep.Submitted))
	}
	if float64(p.rep.Submitted) < offeredFloor*float64(p.due) {
		r.Problems = append(r.Problems, fmt.Sprintf("%s: the generator submitted %d of %d due operations (failed_share %.3f)",
			label, p.rep.Submitted, p.due, failedShare(p.due, p.onChain)))
	}
	r.Attempted += p.rep.Submitted
	r.Failed += lost
}

// failedShare is 1 - on_chain/due, floored at 0: operations the
// generator never produced count as failed, so a generator that falls
// behind cannot make the system look healthy.
func failedShare(due, onChain uint64) float64 {
	if due == 0 || onChain >= due {
		return 0
	}
	return 1 - float64(onChain)/float64(due)
}

// missing is how many of the submitted operations never reached a chain.
func missing(submitted, onChain uint64) uint64 {
	if onChain >= submitted {
		return 0
	}
	return submitted - onChain
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runEndToEnd measures the end-to-end metrics of one workload with
// tracing off: several set-ups, a warm-up, the paced phase, a drain,
// teardown.
func runEndToEnd(rec *recorder, s spec, seed int64, measured float64, outDir string) (*result, error) {
	root := rec.begin("workload", s.Name, 0)
	defer rec.end(root)
	res := &result{Workload: s.Name, Metrics: make(map[string]value)}

	l, setup, err := prepare(rec, root, s, seed, outDir, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer l.teardown(rec, root)
	res.Metrics["setup_s"] = setup

	p, err := l.pacedPhase(rec, root, "paced", seconds(measured), seed+2, -1)
	if err != nil {
		return nil, err
	}
	res.checkPaced("paced", p)
	n := int(p.rep.Committed)
	res.Metrics["confirm_p50_ms"] = value{V: p.rep.LatencyP50 * 1e3, N: n}
	res.Metrics["confirm_p90_ms"] = value{V: p.rep.LatencyP90 * 1e3, N: n}
	res.Metrics["allocs_per_tx"] = p.perTx(float64(p.used.mallocs))
	res.Metrics["alloc_kb_per_tx"] = p.perTx(float64(p.used.bytes) / 1024)

	if s.Workload == "" {
		checked, problems := l.spotRead(seed)
		res.Attempted += uint64(checked)
		res.Failed += uint64(len(problems))
		res.Problems = append(res.Problems, problems...)
	}
	return res, nil
}

// pacedPhase runs one measured paced phase under its own span, from a
// collected heap.
func (l *live) pacedPhase(rec *recorder, root int, name string, d time.Duration, seed int64, traceSample float64) (*paced, error) {
	runtime.GC()
	sp := rec.begin(name, l.spec.Name, root)
	p, err := l.runPaced(d, seed, traceSample)
	rec.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s phase: %w", name, err)
	}
	return p, nil
}

func (l *live) teardown(rec *recorder, root int) {
	sp := rec.begin("teardown", l.spec.Name, root)
	l.stop()
	rec.end(sp)
}

// runPerLayer measures the per-layer metrics of one workload on one
// cluster: the paced phase untraced for the counter ratios, the paced
// phase again with every transaction traced for the stage latencies, the
// peak phase, and — after the cluster is stopped — the layer probes.
func runPerLayer(rec *recorder, s spec, seed int64, measured float64, outDir string) (*result, error) {
	root := rec.begin("workload", s.Name, 0)
	defer rec.end(root)
	res := &result{Workload: s.Name, Metrics: make(map[string]value)}

	l, _, err := prepare(rec, root, s, seed, outDir, 1)
	if err != nil {
		return nil, err
	}
	third := seconds(measured / 3)
	err = func() error {
		defer l.teardown(rec, root)
		plain, err := l.pacedPhase(rec, root, "paced", third, seed+2, -1)
		if err != nil {
			return err
		}
		traced, err := l.pacedPhase(rec, root, "paced.traced", third, seed+3, 1)
		if err != nil {
			return err
		}
		res.checkPaced("paced", plain)
		res.checkPaced("paced.traced", traced)
		counterMetrics(res.Metrics, s, plain)
		stageMetrics(res.Metrics, plain, traced)

		sp := rec.begin("peak", s.Name, root)
		frames, peakRep, err := l.runPeak(third, seed+4)
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("peak phase: %w", err)
		}
		tps, kept := steadyRate(frames, peakDropped)
		res.Metrics["driver.peak_tps"] = value{V: tps, N: kept}
		if tps == 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("peak: no commit rate (%d frames, %d committed)", len(frames), peakRep.Committed))
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}

	vals, problems := runProbes(rec, outDir)
	for k, v := range vals {
		res.Metrics[k] = v
	}
	res.Problems = append(res.Problems, problems...)
	return res, nil
}

// counterMetrics derives the per-layer ratios from the product's own
// counters over the untraced paced phase. A counter the platform does
// not expose (no LSM, no shards, no parallel executor) yields n/a.
func counterMetrics(m map[string]value, s spec, p *paced) {
	rep := p.rep
	cnt := func(name string) value {
		v, ok := rep.Counters[name]
		if !ok {
			return na()
		}
		return value{V: float64(v)}
	}
	// over divides two counters; n/a if either is missing or the base is 0.
	over := func(num, den value) value {
		if num.NA || den.NA {
			return na()
		}
		return ratio(num.V, den.V)
	}
	sum := func(a, b value) value {
		if a.NA || b.NA {
			return na()
		}
		return value{V: a.V + b.V}
	}
	scaled := func(v value, by float64) value {
		if !v.NA {
			v.V *= by
		}
		return v
	}
	committed := value{V: float64(rep.Committed)}

	m["driver.offered_ratio"] = withN(ratio(float64(rep.Submitted), float64(p.due)), int(p.due))
	m["driver.failed_share"] = value{V: failedShare(p.due, p.onChain), N: int(p.due)}
	m["driver.confirm_p99_ms"] = value{V: rep.LatencyP99 * 1e3, N: int(rep.Committed)}
	m["driver.queue_depth_p50"] = value{V: median(p.queue), N: len(p.queue)}
	m["runtime.cpu_us_per_tx"] = p.perTx(float64(p.used.cpu.Microseconds()))
	m["runtime.heap_peak_mb"] = value{V: float64(p.heapPeak) / (1 << 20), N: len(p.queue)}
	m["simnet.msgs_per_tx"] = p.perTx(float64(rep.MsgsSent))
	m["simnet.bytes_per_tx"] = p.perTx(float64(rep.BytesSent))

	// Every replica of a consensus group counts the batches it applies.
	batches, groupSize := cnt("raft.batches"), float64(nodes)
	if batches.NA {
		batches = cnt("pbft.batches")
	}
	if s.Kind == blockbench.Sharded {
		groupSize = 1 // 4 shards on 4 nodes: one replica per group
	}
	m["consensus.txs_per_batch"] = over(scaled(committed, groupSize), batches)
	m["raft.read_redirect_ratio"] = over(cnt("raft.read_redirects"), sum(cnt("raft.read_redirects"), cnt("raft.lease_reads")))
	m["exec.us_per_tx"] = over(scaled(cnt("exec.time_ns"), 1e-3/nodes), committed)
	m["exec.parallel_reexec_ratio"] = over(cnt("exec.parallel.reexecs"), cnt("exec.parallel.txs"))
	m["store.flat_hit_ratio"] = over(cnt("store.flat_hits"), sum(cnt("store.flat_hits"), cnt("store.flat_misses")))
	m["store.gets_per_tx"] = over(cnt("store.gets"), committed)
	m["store.puts_per_tx"] = over(cnt("store.puts"), committed)
	m["store.wal_syncs_per_ktx"] = over(scaled(cnt("store.wal_syncs"), 1000), committed)
	m["store.compact_bytes_per_tx"] = over(cnt("store.compact_bytes"), committed)
	m["store.bloom_skip_ratio"] = over(cnt("store.bloom_skips"), cnt("store.bloom_probes"))
	m["sharding.xshard_ratio"] = over(cnt("xshard.txs"), sum(cnt("xshard.txs"), cnt("xshard.fastpath")))
	m["sharding.retries_per_xtx"] = over(cnt("xshard.retries"), cnt("xshard.txs"))
	m["sharding.abort_share"] = over(cnt("xshard.aborts"), sum(cnt("xshard.aborts"), cnt("xshard.commits")))
	m["analytics.rows_per_tx"] = over(cnt("analytics.rows"), committed)
}

// stageMetrics reads the traced phase's per-stage latencies. The ledger
// check compares the sum of the stage means with the mean confirm
// latency of the same phase; the overhead compares CPU per transaction
// with and without tracing on the same cluster.
func stageMetrics(m map[string]value, plain, traced *paced) {
	var sum float64
	for _, stage := range []string{"admit", "batch", "propose", "order", "execute", "state_commit", "confirm"} {
		st, ok := traced.rep.Stages[stage]
		if !ok || st.Count == 0 {
			m["stage."+stage+"_p50_ms"], m["stage."+stage+"_p99_ms"] = na(), na()
			continue
		}
		m["stage."+stage+"_p50_ms"] = value{V: st.P50S * 1e3, N: int(st.Count)}
		m["stage."+stage+"_p99_ms"] = value{V: st.P99S * 1e3, N: int(st.Count)}
		sum += st.MeanS
	}
	m["stage.sum_vs_confirm_pct"] = withN(ratio(100*sum, traced.rep.LatencyMean), int(traced.rep.Committed))
	with := traced.perTx(float64(traced.used.cpu.Microseconds()))
	without := plain.perTx(float64(plain.used.cpu.Microseconds()))
	if with.NA || without.NA {
		m["trace.overhead_pct"] = na()
	} else {
		m["trace.overhead_pct"] = ratio(100*(with.V-without.V), without.V)
	}
}

func withN(v value, n int) value { v.N = n; return v }
