package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Sink consumes one run's metric stream: every live Snapshot in emission
// order, then the final Report. Implementations need not be safe for
// concurrent use — the driver and CLI feed a sink from a single
// goroutine.
type Sink interface {
	WriteSnapshot(Snapshot) error
	WriteReport(*Report) error
	// Close flushes and releases the underlying writer. Callers must
	// Close after the final WriteReport.
	Close() error
}

// Open creates a JSONL file sink for path, whatever its extension.
// Parent directories must exist.
func Open(path string) (Sink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("report: open sink: %w", err)
	}
	return NewJSONL(f), nil
}

// JSONL writes one JSON object per line: {"type":"snapshot",...} frames
// followed by one {"type":"report",...} summary. The format is the
// machine-readable series EXPERIMENTS.md macro runs record.
type JSONL struct {
	w   io.Writer
	enc *json.Encoder
}

// NewJSONL returns a JSONL sink over w. If w is an io.Closer, Close
// closes it.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, enc: json.NewEncoder(w)}
}

// WriteSnapshot implements Sink.
func (s *JSONL) WriteSnapshot(snap Snapshot) error {
	return s.enc.Encode(struct {
		Type string `json:"type"`
		Snapshot
	}{"snapshot", snap})
}

// WriteReport implements Sink.
func (s *JSONL) WriteReport(r *Report) error {
	return s.enc.Encode(struct {
		Type string `json:"type"`
		*Report
	}{"report", r})
}

// Close implements Sink.
func (s *JSONL) Close() error {
	if c, ok := s.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
