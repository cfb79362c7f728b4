package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestReportStringShowsFaultSignals(t *testing.T) {
	r := &Report{Platform: "quorum", Workload: "ycsb", Nodes: 4, Clients: 4,
		Duration: time.Minute, Throughput: 120, Blocks: 50,
		SubmitErrors: 7,
		Counters:     map[string]uint64{CounterElections: 3},
	}
	s := r.String()
	if !strings.Contains(s, "submit-errors=7") {
		t.Fatalf("summary hides submit errors: %q", s)
	}
	if !strings.Contains(s, "elections=3") {
		t.Fatalf("summary hides elections: %q", s)
	}

	healthy := &Report{Platform: "parity", Workload: "ycsb", Duration: time.Minute}
	hs := healthy.String()
	if strings.Contains(hs, "submit-errors") || strings.Contains(hs, "elections") {
		t.Fatalf("healthy summary shows zero-valued fault signals: %q", hs)
	}
	if s == hs {
		t.Fatal("crashed-leader run prints the same summary as a healthy one")
	}
}

func TestReportAccessors(t *testing.T) {
	r := &Report{Counters: map[string]uint64{
		CounterPowHashes:  10,
		CounterExecTimeNs: uint64(2 * time.Second),
		CounterElections:  1,
		"custom.metric":   5,
	}}
	if r.PowHashes() != 10 || r.Elections() != 1 || r.ExecTime() != 2*time.Second {
		t.Fatalf("accessor mismatch: %+v", r.Counters)
	}
	if r.Counter("custom.metric") != 5 || r.Counter("absent") != 0 {
		t.Fatal("generic Counter lookup broken")
	}
	names := r.CounterNames()
	if len(names) != 4 || names[0] != "custom.metric" {
		t.Fatalf("unsorted counter names: %v", names)
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	snap := Snapshot{Seq: 0, Elapsed: 250 * time.Millisecond,
		Submitted: 10, Committed: 8, QueueDepth: 2,
		Counters: map[string]uint64{CounterElections: 1},
		Events:   []string{"crash(3)"}}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteReport(&Report{Platform: "quorum", Committed: 8}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 JSONL lines, got %d: %q", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("snapshot line does not parse: %v", err)
	}
	if first["type"] != "snapshot" || first["committed"] != float64(8) {
		t.Fatalf("bad snapshot record: %v", first)
	}
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatalf("report line does not parse: %v", err)
	}
	if last["type"] != "report" || last["platform"] != "quorum" {
		t.Fatalf("bad report record: %v", last)
	}
}
