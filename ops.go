package blockbench

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"blockbench/internal/metrics"
	"blockbench/internal/trace"
)

// opsServer is the per-run operations endpoint: a private HTTP mux
// serving /metrics (Prometheus text format), /debug/pprof/*, /healthz
// and /traces for exactly as long as the run handle lives. It binds its
// own listener so shutdown is leak-free: close() tears the listener and
// every open connection down with the run.
type opsServer struct {
	ln  net.Listener
	srv *http.Server
}

// startOps binds addr and serves the ops mux in the background.
func startOps(addr string, r *Handle) (*opsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, r)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		traces := r.tracer.Recent()
		if traces == nil {
			traces = []Trace{}
		}
		json.NewEncoder(w).Encode(traces)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	o := &opsServer{ln: ln, srv: &http.Server{Handler: mux}}
	go o.srv.Serve(ln)
	return o, nil
}

// close shuts the listener and every open connection down immediately.
// Nil-safe, so the run finisher calls it unconditionally.
func (o *opsServer) close() {
	if o == nil {
		return
	}
	o.srv.Close()
}

// OpsAddr returns the ops server's bound listen address (useful with a
// ":0" HTTPAddr), or "" when the run serves no ops endpoint.
func (r *Handle) OpsAddr() string {
	if r.ops == nil {
		return ""
	}
	return r.ops.ln.Addr().String()
}

// writePrometheus renders the run's live metrics in Prometheus text
// exposition format (version 0.0.4), hand-rolled so the framework stays
// dependency-free: the run's own progress counters, every platform
// counter the cluster's engines expose, and one summary series per
// traced pipeline stage.
func writePrometheus(w http.ResponseWriter, r *Handle) {
	fmt.Fprintln(w, "# HELP bb_submitted_total Operations submitted by the driver this run.")
	fmt.Fprintln(w, "# TYPE bb_submitted_total counter")
	fmt.Fprintf(w, "bb_submitted_total %d\n", r.submitted.Load())
	fmt.Fprintln(w, "# HELP bb_committed_total Transactions confirmed committed this run.")
	fmt.Fprintln(w, "# TYPE bb_committed_total counter")
	fmt.Fprintf(w, "bb_committed_total %d\n", r.committed.Load())
	fmt.Fprintln(w, "# HELP bb_submit_errors_total Rejected submissions (server busy) this run.")
	fmt.Fprintln(w, "# TYPE bb_submit_errors_total counter")
	fmt.Fprintf(w, "bb_submit_errors_total %d\n", r.submitErrors.Load())

	queue := 0
	for _, cs := range r.states {
		queue += cs.queueLen()
	}
	fmt.Fprintln(w, "# HELP bb_queue_depth Generated-but-unconfirmed operations across all clients.")
	fmt.Fprintln(w, "# TYPE bb_queue_depth gauge")
	fmt.Fprintf(w, "bb_queue_depth %d\n", queue)

	fmt.Fprintln(w, "# HELP bb_run_elapsed_seconds Wall-clock time since the measurement window opened.")
	fmt.Fprintln(w, "# TYPE bb_run_elapsed_seconds gauge")
	fmt.Fprintf(w, "bb_run_elapsed_seconds %s\n", formatFloat(time.Since(r.start).Seconds()))

	// Platform counters, one family per namespaced key, raw monotonic
	// values (Prometheus rates them; the run delta lives in the report).
	counters := r.cluster.inner.Counters()
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := "bb_" + sanitizeMetricName(k)
		kind := "counter"
		if metrics.GaugeKey(k) {
			kind = "gauge"
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		fmt.Fprintf(w, "%s %d\n", name, counters[k])
	}

	// Lifecycle tracing: sampling meta plus one summary per stage.
	tracer := r.tracer
	fmt.Fprintln(w, "# HELP bb_trace_sampled_total Lifecycle spans opened since the run armed the tracer.")
	fmt.Fprintln(w, "# TYPE bb_trace_sampled_total counter")
	fmt.Fprintf(w, "bb_trace_sampled_total %d\n", tracer.SampledCount())
	fmt.Fprintln(w, "# HELP bb_trace_pending Live (opened, unconfirmed) lifecycle spans.")
	fmt.Fprintln(w, "# TYPE bb_trace_pending gauge")
	fmt.Fprintf(w, "bb_trace_pending %d\n", tracer.Pending())
	fmt.Fprintln(w, "# HELP bb_trace_sample_rate Configured lifecycle sampling fraction.")
	fmt.Fprintln(w, "# TYPE bb_trace_sample_rate gauge")
	fmt.Fprintf(w, "bb_trace_sample_rate %s\n", formatFloat(tracer.SampleRate()))

	// The stage summaries are the report's stage map, so /metrics and
	// the JSONL carry the same numbers.
	fmt.Fprintln(w, "# HELP bb_stage_latency_seconds Per-stage transaction latency, measured from the previous stamped stage.")
	fmt.Fprintln(w, "# TYPE bb_stage_latency_seconds summary")
	stats := tracer.Summaries()
	for s := trace.Stage(1); s < trace.NumStages; s++ {
		stage, st := s.String(), stats[s.String()]
		fmt.Fprintf(w, "bb_stage_latency_seconds{stage=%q,quantile=\"0.5\"} %s\n", stage, formatFloat(st.P50S))
		fmt.Fprintf(w, "bb_stage_latency_seconds{stage=%q,quantile=\"0.99\"} %s\n", stage, formatFloat(st.P99S))
		fmt.Fprintf(w, "bb_stage_latency_seconds_sum{stage=%q} %s\n", stage, formatFloat(st.MeanS*float64(st.Count)))
		fmt.Fprintf(w, "bb_stage_latency_seconds_count{stage=%q} %d\n", stage, st.Count)
	}
}

// sanitizeMetricName maps a namespaced counter key ("raft.elections")
// onto the Prometheus name alphabet [a-zA-Z0-9_].
func sanitizeMetricName(key string) string {
	var b strings.Builder
	for _, c := range key {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
