// Command blockbench runs one workload against one simulated platform
// and prints the run's metrics — the CLI face of the framework's driver.
//
// Platforms come from internal/platform's closed table of five presets;
// workloads from blockbench.RegisterWorkload, which framework users
// extend. Workload parameters are generic -wopt key=val pairs
// interpreted by the workload's factory, and platform tuning is the
// same mechanism under -popt, interpreted by the preset, so a new
// workload or backend needs zero CLI edits.
//
// The run executes through the driver's run handle: a live progress line
// streams from the per-bucket snapshot channel, -out records the full
// machine-readable series (JSONL) for offline analysis, and Ctrl-C
// aborts the run cleanly with a partial report.
//
// Examples:
//
//	blockbench -platform hyperledger -workload ycsb -nodes 8 -clients 8 -rate 128 -duration 12s
//	blockbench -platform ethereum -workload smallbank -blocking -duration 10s
//	blockbench -platform parity -workload ycsb -wopt readprop=0.9 -wopt distribution=uniform
//	blockbench -platform quorum -workload ycsb -duration 10s -out run.jsonl
//	blockbench -platforms
//	blockbench -workloads
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"blockbench"
	"blockbench/internal/workload"
)

func platformNames() string {
	names := make([]string, 0, 4)
	for _, k := range blockbench.Platforms() {
		names = append(names, string(k))
	}
	return strings.Join(names, " | ")
}

// multiFlag collects repeated -wopt / -popt key=val arguments.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var wopts, popts multiFlag
	var (
		platformName = flag.String("platform", "hyperledger", platformNames())
		workloadName = flag.String("workload", "ycsb", strings.Join(blockbench.Workloads(), " | "))
		nodes        = flag.Int("nodes", 8, "number of server nodes")
		clients      = flag.Int("clients", 8, "number of concurrent clients")
		threads      = flag.Int("threads", 4, "submit threads per client (with -blocking: its window of unconfirmed txs)")
		rate         = flag.Float64("rate", 128, "offered load per client in tx/s (0 = max; ignored with -blocking)")
		duration     = flag.Duration("duration", 12*time.Second, "measurement window")
		blocking     = flag.Bool("blocking", false, "closed loop: a client sends its next tx once an earlier one is confirmed")
		seed         = flag.Int64("seed", 42, "workload RNG seed")
		out          = flag.String("out", "", "record the run to this file as JSONL: the snapshot series, then the final report")
		httpAddr     = flag.String("http", "", "serve the run's ops endpoint on this address (e.g. :6060): /metrics, /debug/pprof/, /healthz, /traces")
		traceSample  = flag.Float64("trace", 0, "lifecycle trace sampling fraction (0 = default 1%, negative = off, 1 = all)")
		chaos        = flag.String("chaos", "", "randomized fault injection: seed=N,kill=p,net=p (empty values take defaults); safety invariants are checked and violations fail the run")
		quiet        = flag.Bool("quiet", false, "suppress the live progress line")
		listP        = flag.Bool("platforms", false, "list platforms and exit")
		listW        = flag.Bool("workloads", false, "list registered workloads and exit")
	)
	flag.Var(&wopts, "wopt", "workload option key=val (repeatable)")
	flag.Var(&popts, "popt", "platform option key=val (repeatable, e.g. shards=4 on sharded)")
	flag.Parse()

	if *listP {
		for _, k := range blockbench.Platforms() {
			fmt.Printf("%-12s %s\n", k, blockbench.PlatformDescribe(k))
		}
		return
	}
	if *listW {
		for _, name := range blockbench.Workloads() {
			fmt.Printf("%-12s [%s] %s\n", name,
				strings.Join(blockbench.WorkloadContracts(name), ","),
				blockbench.WorkloadDescribe(name))
		}
		return
	}

	opts, err := workload.ParseOptions(wopts)
	if err != nil {
		fatal(fmt.Errorf("-wopt: %w", err))
	}
	w, err := blockbench.NewWorkload(*workloadName, opts)
	if err != nil {
		fatal(err)
	}
	kind, err := blockbench.PlatformByName(*platformName)
	if err != nil {
		fatal(err)
	}

	platformOpts, err := workload.ParseOptions(popts)
	if err != nil {
		fatal(fmt.Errorf("-popt: %w", err))
	}
	c, err := blockbench.NewCluster(blockbench.ClusterConfig{
		Kind:      kind,
		Nodes:     *nodes,
		Contracts: w.Contracts(),
		Options:   platformOpts,
	}, *clients)
	if err != nil {
		fatal(err)
	}
	defer c.Stop()
	c.Start()

	fmt.Printf("running %s on %s: %d nodes, %d clients x %d threads, %v\n",
		w.Name(), kind, *nodes, *clients, *threads, *duration)

	var sink blockbench.Sink
	if *out != "" {
		if sink, err = blockbench.OpenSink(*out); err != nil {
			fatal(err)
		}
	}

	// Ctrl-C cancels the run's context: the driver tears down and the
	// partial report still prints (and lands in the sink).
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	chaosOpts, err := parseChaos(*chaos)
	if err != nil {
		fatal(err)
	}
	run, err := blockbench.Start(ctx, c, w, blockbench.RunConfig{
		Clients:     *clients,
		Threads:     *threads,
		Rate:        *rate,
		Blocking:    *blocking,
		Duration:    *duration,
		Seed:        *seed,
		TraceSample: *traceSample,
		HTTPAddr:    *httpAddr,
		Chaos:       chaosOpts,
	})
	if err != nil {
		fatal(err)
	}
	if *httpAddr != "" && !*quiet {
		fmt.Fprintf(os.Stderr, "  ops endpoint on http://%s (/metrics /debug/pprof/ /healthz /traces)\n", run.OpsAddr())
	}
	for snap := range run.Snapshots() {
		if sink != nil {
			if err := sink.WriteSnapshot(snap); err != nil {
				fatal(err)
			}
		}
		if *quiet {
			continue
		}
		fmt.Fprintf(os.Stderr, "\r  t=%5.1fs submitted=%-7d committed=%-7d queue=%-6d errors=%d ",
			snap.Elapsed.Seconds(), snap.Submitted, snap.Committed, snap.QueueDepth, snap.SubmitErrors)
		for _, ev := range snap.Events {
			fmt.Fprintf(os.Stderr, "\n  event t=%.1fs: %s\n", snap.Elapsed.Seconds(), ev)
		}
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr)
	}
	report, err := run.Wait()
	if err != nil {
		fatal(err)
	}
	if sink != nil {
		if err := sink.WriteReport(report); err != nil {
			fatal(err)
		}
		if err := sink.Close(); err != nil {
			fatal(err)
		}
	}

	fmt.Println()
	fmt.Println(report)
	fmt.Printf("  submitted=%d committed=%d submit-errors=%d\n",
		report.Submitted, report.Committed, report.SubmitErrors)
	fmt.Printf("  latency: mean=%.3fs p50=%.3fs p90=%.3fs p99=%.3fs\n",
		report.LatencyMean, report.LatencyP50, report.LatencyP90, report.LatencyP99)
	fmt.Printf("  blocks: %d (%.2f/s); forks: %d total / %d main\n",
		report.Blocks, report.BlockRate(), report.ForkTotal, report.ForkMain)
	if report.Elections() > 0 {
		fmt.Printf("  consensus: %d leader elections\n", report.Elections())
	}
	if ratio := report.CrossShardRatio(); ratio > 0 {
		fmt.Printf("  cross-shard: %.1f%% of routed txs (commits=%d aborts=%d retries=%d)\n",
			100*ratio, report.Counter("xshard.commits"),
			report.Counter("xshard.aborts"), report.Counter("xshard.retries"))
	}
	fmt.Printf("  network: %.2f MB/s, %d msgs (%d dropped)\n",
		report.NetworkMBps(), report.MsgsSent, report.MsgsDropped)
	if len(report.Counters) > 0 {
		fmt.Printf("  counters:")
		for _, name := range report.CounterNames() {
			fmt.Printf(" %s=%d", name, report.Counters[name])
		}
		fmt.Println()
	}
	for _, ev := range report.Events {
		fmt.Printf("  event t=%.1fs: %s\n", ev.At.Seconds(), ev.Name)
	}
	if *out != "" {
		fmt.Printf("  series: %s\n", *out)
	}
	if report.ChaosSeed != 0 {
		fmt.Printf("  chaos: seed=%d (rerun with -chaos seed=%d to reproduce the fault timeline)\n",
			report.ChaosSeed, report.ChaosSeed)
	}
	if len(report.Invariants) > 0 {
		fmt.Fprintf(os.Stderr, "SAFETY INVARIANT VIOLATIONS (%d):\n", len(report.Invariants))
		for _, v := range report.Invariants {
			fmt.Fprintf(os.Stderr, "  - %s\n", v)
		}
		os.Exit(2)
	}
}

// parseChaos interprets the -chaos flag: "seed=N,kill=p,net=p", every
// key optional ("-chaos seed=7" works), empty string = off.
func parseChaos(spec string) (*blockbench.ChaosOptions, error) {
	if spec == "" {
		return nil, nil
	}
	opts := &blockbench.ChaosOptions{}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("chaos option %q is not key=val", kv)
		}
		switch k {
		case "seed":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos seed %q: %w", v, err)
			}
			opts.Seed = n
		case "kill", "net":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos %s %q: %w", k, v, err)
			}
			if k == "kill" {
				opts.Kill = p
			} else {
				opts.Net = p
			}
		default:
			return nil, fmt.Errorf("unknown chaos option %q (want seed, kill, net)", k)
		}
	}
	return opts, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blockbench:", err)
	os.Exit(1)
}
