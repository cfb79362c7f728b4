// Package experiments regenerates every table and figure of the paper's
// evaluation (§4 and appendices): peak performance, rate sweeps, queue
// behaviour, scalability, fault tolerance, the partition attack,
// CPUHeavy, IOHeavy, analytics, DoNothing, the H-Store comparison, block
// sizes, resource utilization, latency distributions.
//
// Each experiment is listed by figure ID and produces a Result whose
// rows mirror the series the paper plots. Absolute numbers are at the
// repository's simulation scale (see DESIGN.md); the shape checks —
// which system wins, by what rough factor, where it breaks — are the
// reproduction target and are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"blockbench"
)

// Scale sizes an experiment run.
type Scale struct {
	// Duration of each measured run.
	Duration time.Duration
	// Shrink divides sweep sizes and preload volumes (quick CI runs).
	Shrink int
}

// Full is the default scale: 12 s runs (the paper's 5 minutes at 25x).
var Full = Scale{Duration: 12 * time.Second, Shrink: 1}

// Quick is a fast smoke scale for benchmarks and CI.
var Quick = Scale{Duration: 3 * time.Second, Shrink: 4}

// Result is one experiment's printable output.
type Result struct {
	ID    string
	Title string
	Rows  []string
}

func (r *Result) addf(format string, args ...any) {
	r.Rows = append(r.Rows, fmt.Sprintf(format, args...))
}

// String renders the result as the paper-style text block.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	for _, row := range r.Rows {
		out += row + "\n"
	}
	return out
}

// Runner is an experiment entry point.
type Runner func(s Scale) (*Result, error)

// runners lists every experiment in figure order, the ablations last.
var runners = [...]struct {
	id string
	fn Runner
}{
	{"fig5", Fig5PeakAndRates},
	{"fig6", Fig6QueueLength},
	{"fig7", Fig7ScaleTogether},
	{"fig8", Fig8ScaleServers},
	{"fig9", Fig9CrashFault},
	{"fig10", Fig10PartitionAttack},
	{"fig11", Fig11CPUHeavy},
	{"fig12", Fig12IOHeavy},
	{"fig13", Fig13Analytics},
	{"fig13c", Fig13cDoNothing},
	{"fig14", Fig14HStore},
	{"fig15", Fig15BlockSizes},
	{"fig16", Fig16Utilization},
	{"fig17", Fig17LatencyCDF},
	{"fig18", Fig18Queue20},
	{"fig19", Fig19SmallbankScale},
	{"abl-inbox", AblationInbox},
	{"abl-cache", AblationStateCache},
	{"abl-signing", AblationParitySigning},
}

// IDs lists the experiment IDs in figure order.
func IDs() []string {
	out := make([]string, len(runners))
	for i, r := range runners {
		out[i] = r.id
	}
	return out
}

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, bool) {
	for _, r := range runners {
		if r.id == id {
			return r.fn, true
		}
	}
	return nil, false
}

// sizedWorkload builds a registered workload with its record/account
// volume set — the registry lookup behind every experiment table, so a
// workload registered by a framework user is immediately addressable
// here too. Names are static within this package, so failure is a
// programming error.
func sizedWorkload(name string, records int) blockbench.Workload {
	return blockbench.MustWorkload(name,
		blockbench.WorkloadOptions{"records": strconv.Itoa(records)})
}

// newCluster builds a stopped cluster with paper-faithful defaults.
// tweak adjusts the shared fields directly and the preset's knobs
// through cfg.Options, keyed like the CLI's -popt (a key the preset
// does not take fails the build, so tweaks name their platform).
func newCluster(kind blockbench.Platform, nodes, clients int,
	w blockbench.Workload, tweak func(*blockbench.ClusterConfig)) (*blockbench.Cluster, error) {

	cfg := blockbench.ClusterConfig{Kind: kind, Nodes: nodes, Options: map[string]string{}}
	if w != nil {
		cfg.Contracts = w.Contracts()
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return blockbench.NewCluster(cfg, clients)
}

// SnapshotDir, when non-empty, makes every measured run stream its
// per-bucket snapshots (and final report) to a JSONL file under this
// directory — the machine-readable series EXPERIMENTS.md macro runs
// record. Set it before running experiments (the cmd/experiments
// -jsonl flag does).
var SnapshotDir string

// snapSeq numbers sink files so repeated configurations within one
// experiment do not overwrite each other.
var snapSeq atomic.Uint64

// drive runs a preloaded workload on a started cluster through the run
// handle, streaming the live series to a JSONL sink when SnapshotDir is
// set. Experiments that keep their own cluster (post-run fork stats)
// call it directly; everything else goes through measure.
func drive(c *blockbench.Cluster, w blockbench.Workload,
	rc blockbench.RunConfig) (*blockbench.Report, error) {

	var sink blockbench.Sink
	if SnapshotDir != "" {
		name := fmt.Sprintf("%s-%s-n%d-%03d.jsonl", c.Kind(), w.Name(), c.Size(), snapSeq.Add(1))
		var err error
		if sink, err = blockbench.OpenSink(filepath.Join(SnapshotDir, name)); err != nil {
			return nil, err
		}
		defer sink.Close()
	}

	rc.SkipInit = true
	run, err := blockbench.Start(context.Background(), c, w, rc)
	if err != nil {
		return nil, err
	}
	// Drain the stream to the end even if a sink write fails, so the
	// run tears down before the caller stops the cluster.
	var sinkErr error
	for snap := range run.Snapshots() {
		if sink != nil && sinkErr == nil {
			sinkErr = sink.WriteSnapshot(snap)
		}
	}
	r, err := run.Wait()
	if err == nil {
		err = sinkErr
	}
	if err == nil && sink != nil {
		err = sink.WriteReport(r)
	}
	return r, err
}

// measure runs one workload on a fresh cluster: preload while stopped,
// then start and drive through the run handle.
func measure(kind blockbench.Platform, nodes, clients int, w blockbench.Workload,
	rc blockbench.RunConfig, tweak func(*blockbench.ClusterConfig)) (*blockbench.Report, error) {

	c, err := newCluster(kind, nodes, clients, w, tweak)
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	if err := w.Init(c, rand.New(rand.NewSource(7))); err != nil {
		return nil, err
	}
	c.Start()
	if rc.Clients == 0 {
		rc.Clients = clients
	}
	return drive(c, w, rc)
}

func fmtSeries(vals []float64, every int) string {
	out := ""
	for i := 0; i < len(vals); i += every {
		out += fmt.Sprintf("%.0f ", vals[i])
	}
	return out
}
