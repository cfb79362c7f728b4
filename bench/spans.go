package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark itself, around
// its calls into the product: name, start, end, the span that caused it
// and the workload it belongs to. Times are nanoseconds since the
// recorder was created.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// recorder keeps every span in memory and writes them out once, at
// exit. It is only touched at phase edges, never on a measured path.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (r *recorder) begin(name, workload string, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name,
		Workload: workload, StartNs: time.Since(r.epoch).Nanoseconds()})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = time.Since(r.epoch).Nanoseconds()
	return time.Duration(s.EndNs - s.StartNs)
}

// write dumps the spans as one JSON array to dir/spans.json.
func (r *recorder) write(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644)
}
