package blockbench

import "blockbench/report"

// The run outputs live in the report subpackage; these aliases keep the
// framework's surface importable from the root package alone. Resource
// counters reach the Report through the generic CounterProvider seam
// (internal/metrics) aggregated by the platform cluster — there is no
// per-engine case anywhere in the reporting path, so every platform
// preset surfaces its counters without touching this package.
type (
	// Report carries the metrics of one driver run.
	Report = report.Report
	// Snapshot is one per-bucket frame of a live run's metric stream.
	Snapshot = report.Snapshot
	// Trace is one complete sampled transaction lifecycle.
	Trace = report.Trace
	// Sink consumes a run's snapshot stream and final report (the JSONL
	// implementation ships in the report package).
	Sink = report.Sink
)

// OpenSink creates a JSONL file sink for path.
func OpenSink(path string) (Sink, error) { return report.Open(path) }
