package blockbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"blockbench/internal/trace"
	"blockbench/report"
)

// stageNames lists the tracer's stages in pipeline order.
func stageNames() []string {
	names := make([]string, trace.NumStages)
	for s := range names {
		names[s] = trace.Stage(s).String()
	}
	return names
}

// stageIndex maps stage names to their canonical pipeline position.
var stageIndex = func() map[string]int {
	m := make(map[string]int)
	for i, n := range stageNames() {
		m[n] = i
	}
	return m
}()

// checkTraces asserts every exported trace follows the canonical stage
// order byte-for-byte (strictly ascending pipeline positions, opening
// with submit and closing with confirm) with nondecreasing offsets, and
// that each trace crossed at least minStages stages.
func checkTraces(t *testing.T, traces []Trace, minStages int) {
	t.Helper()
	if len(traces) == 0 {
		t.Fatal("no complete traces exported")
	}
	for _, tr := range traces {
		if len(tr.Stages) < minStages {
			t.Fatalf("trace %s crossed %d stages, want >= %d: %+v",
				tr.ID, len(tr.Stages), minStages, tr.Stages)
		}
		if tr.Stages[0].Stage != "submit" {
			t.Fatalf("trace %s opens with %q, want submit", tr.ID, tr.Stages[0].Stage)
		}
		if last := tr.Stages[len(tr.Stages)-1]; last.Stage != "confirm" {
			t.Fatalf("trace %s closes with %q, want confirm", tr.ID, last.Stage)
		}
		prevIdx, prevOff := -1, int64(-1)
		for _, p := range tr.Stages {
			idx, ok := stageIndex[p.Stage]
			if !ok {
				t.Fatalf("trace %s has unknown stage %q", tr.ID, p.Stage)
			}
			if idx <= prevIdx {
				t.Fatalf("trace %s stage %q out of pipeline order: %+v", tr.ID, p.Stage, tr.Stages)
			}
			if p.OffsetNs < prevOff {
				t.Fatalf("trace %s stage %q offset regressed: %+v", tr.ID, p.Stage, tr.Stages)
			}
			prevIdx, prevOff = idx, p.OffsetNs
		}
	}
}

// checkStages asserts the full stage key set is present and the stages
// named in counted saw traffic.
func checkStages(t *testing.T, stages map[string]report.StageStat, counted ...string) {
	t.Helper()
	if len(stages) != trace.NumStages {
		t.Fatalf("stage map has %d keys, want %d: %v", len(stages), trace.NumStages, stages)
	}
	for _, name := range stageNames() {
		if _, ok := stages[name]; !ok {
			t.Fatalf("stage map missing %q: %v", name, stages)
		}
	}
	for _, name := range counted {
		s := stages[name]
		if s.Count == 0 {
			t.Fatalf("stage %q saw no samples: %v", name, stages)
		}
		if name != "submit" && (s.P50S < 0 || s.P99S < s.P50S) {
			t.Fatalf("stage %q has inconsistent quantiles: %+v", name, s)
		}
	}
}

// TestTraceLifecycleQuorumParallelExec races sampled tracing against
// the parallel intra-block executor (workers=4) on the Raft platform:
// every exported span must still read as the canonical pipeline
// sequence, and the per-stage breakdown must cover the whole pipeline.
func TestTraceLifecycleQuorumParallelExec(t *testing.T) {
	cfg := testConfig(Quorum, 4)
	cfg.Contracts = []string{"ycsb"}
	cfg.Options["workers"] = "4"
	c, err := NewCluster(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	c.Start()

	run, err := Start(context.Background(), c, &YCSBWorkload{Records: 50}, RunConfig{
		Clients:     4,
		Threads:     2,
		Rate:        120,
		Duration:    2 * time.Second,
		TraceSample: 1.0, // trace everything: maximal contention on the span map
	})
	if err != nil {
		t.Fatal(err)
	}
	var lastFrame Snapshot
	for snap := range run.Snapshots() {
		checkStages(t, snap.Stages) // full key set in every frame
		lastFrame = snap
	}
	r, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatalf("nothing committed: %v", r)
	}
	// The full pipeline saw traffic: pool, consensus, execution, commit.
	checkStages(t, r.Stages, stageNames()...)
	checkStages(t, lastFrame.Stages, stageNames()...)
	// All traffic was sampled, so confirms track commits.
	if got := r.Stages["confirm"].Count; got == 0 || got > r.Committed {
		t.Fatalf("confirm count %d vs committed %d", got, r.Committed)
	}
	checkTraces(t, r.Traces, trace.NumStages)
}

// TestTraceLifecycleSharded2PC runs Smallbank over the sharded platform
// (gateway forwarding + cross-shard 2PC): spans survive the multi-hop
// path and still export in canonical order.
func TestTraceLifecycleSharded2PC(t *testing.T) {
	w := MustWorkload("smallbank", WorkloadOptions{"accounts": "60"})
	cfg := testConfig(Sharded, 4)
	cfg.Contracts = w.Contracts()
	cfg.Options["shards"] = "2"
	c, err := NewCluster(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	if err := w.Init(c, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	c.Start()

	run, err := Start(context.Background(), c, w, RunConfig{
		Clients:     4,
		Threads:     2,
		Rate:        150,
		Duration:    2 * time.Second,
		SkipInit:    true,
		TraceSample: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	for range run.Snapshots() {
	}
	r, err := run.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed == 0 {
		t.Fatalf("nothing committed: %v", r)
	}
	if r.Counter("xshard.txs") == 0 {
		t.Fatalf("no cross-shard transactions coordinated: %v", r.Counters)
	}
	checkStages(t, r.Stages, "submit", "admit", "propose", "order",
		"execute", "state_commit", "confirm")
	// Cross-shard legs may enter a shard's pool without a gateway batch,
	// so traces need not cross every stage — but whatever they crossed
	// must be in canonical order, submit through confirm.
	checkTraces(t, r.Traces, 4)
}

// TestOpsServerEndpointsAndShutdown exercises the per-run ops endpoint
// and its leak-free teardown: all four endpoints answer during the run;
// cancelling the run closes the listener and leaves no goroutines.
func TestOpsServerEndpointsAndShutdown(t *testing.T) {
	c := fastCluster(t, Quorum, 3, 2)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	run, err := Start(ctx, c, &YCSBWorkload{Records: 30}, RunConfig{
		Clients:     2,
		Threads:     2,
		Rate:        80,
		Duration:    30 * time.Second, // cancelled long before this
		TraceSample: 1.0,
		HTTPAddr:    "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := run.OpsAddr()
	if addr == "" {
		t.Fatal("no ops address bound")
	}

	// Let some traffic commit so the stage histograms are non-trivial.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no commits before deadline")
		}
		if snap, ok := <-run.Snapshots(); ok && snap.Committed > 0 {
			break
		}
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if got := get("/healthz"); !strings.HasPrefix(got, "ok") {
		t.Fatalf("/healthz = %q", got)
	}

	metricsBody := get("/metrics")
	for _, want := range []string{
		"# TYPE bb_stage_latency_seconds summary",
		`bb_stage_latency_seconds{stage="order",quantile="0.99"}`,
		`bb_stage_latency_seconds_count{stage="confirm"}`,
		"# TYPE bb_committed_total counter",
		"bb_raft_elections",
	} {
		if !strings.Contains(metricsBody, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metricsBody)
		}
	}
	// Minimal exposition well-formedness: every non-comment line is
	// "name{labels} value" with a parseable float value.
	for _, line := range strings.Split(strings.TrimSpace(metricsBody), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
			t.Fatalf("metrics line %q has unparseable value: %v", line, err)
		}
	}

	var traces []Trace
	if err := json.Unmarshal([]byte(get("/traces")), &traces); err != nil {
		t.Fatalf("/traces not JSON: %v", err)
	}

	if got := get("/debug/pprof/cmdline"); got == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}

	// Teardown: the cancelled run must close the listener with the rest
	// of the handle and leak nothing.
	cancel()
	for range run.Snapshots() {
	}
	if _, err := run.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("ops listener still accepting after run teardown")
	}
	waitGoroutines(t, before)
}
