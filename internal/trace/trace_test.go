package trace

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"blockbench/internal/types"
	"blockbench/report"
)

func hashOf(i int) types.Hash {
	return types.Hash(sha256.Sum256([]byte(fmt.Sprintf("tx-%d", i))))
}

func TestSamplingDeterministicAndProportional(t *testing.T) {
	tr := New()
	tr.Reset(0.25)
	const n = 4096
	hits := 0
	for i := 0; i < n; i++ {
		h := hashOf(i)
		first := tr.Sampled(h)
		if second := tr.Sampled(h); second != first {
			t.Fatalf("sampling not deterministic for %s", h)
		}
		if first {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("sample rate 0.25 hit %.3f of hashes", frac)
	}

	tr.Reset(0)
	if tr.Enabled() || tr.Sampled(hashOf(1)) {
		t.Fatal("rate 0 must disable sampling")
	}
	tr.Reset(1)
	for i := 0; i < 64; i++ {
		if !tr.Sampled(hashOf(i)) {
			t.Fatalf("rate 1 must sample everything (missed %d)", i)
		}
	}
}

func TestStampFirstWinsAndOrdering(t *testing.T) {
	tr := New()
	tr.Reset(1)
	h := hashOf(7)

	// A stamp before submit opens no span.
	tr.Stamp(h, StageOrder)
	if tr.Pending() != 0 {
		t.Fatal("pre-submit stamp opened a span")
	}

	stages := []Stage{StageSubmit, StageAdmit, StageBatch, StagePropose,
		StageOrder, StageExecute, StageStateCommit}
	for _, s := range stages {
		tr.Stamp(h, s)
		tr.Stamp(h, s) // duplicate: first-wins
		time.Sleep(time.Millisecond)
	}
	if got := tr.Pending(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	tr.Stamp(h, StageConfirm)
	if got := tr.Pending(); got != 0 {
		t.Fatalf("pending after confirm = %d, want 0", got)
	}

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %d traces, want 1", len(recent))
	}
	got := recent[0]
	if got.ID != h.Hex() {
		t.Fatalf("trace id = %s, want %s", got.ID, h.Hex())
	}
	want := StageNames()
	if len(got.Stages) != len(want) {
		t.Fatalf("trace has %d points, want %d", len(got.Stages), len(want))
	}
	var last int64 = -1
	for i, p := range got.Stages {
		if p.Stage != want[i] {
			t.Fatalf("point %d stage = %s, want %s", i, p.Stage, want[i])
		}
		if p.OffsetNs < last {
			t.Fatalf("stage %s offset %d regressed below %d", p.Stage, p.OffsetNs, last)
		}
		last = p.OffsetNs
	}

	// Each stamped stage past submit observed exactly one sample.
	sums := tr.Summaries()
	for s := Stage(1); s < NumStages; s++ {
		if c := sums[s.String()].Count; c != 1 {
			t.Fatalf("stage %s histogram count = %d, want 1", s, c)
		}
	}
}

func TestSummariesAlwaysFullKeySet(t *testing.T) {
	var nilTracer *Tracer
	for _, tr := range []*Tracer{nilTracer, New()} {
		sums := tr.Summaries()
		if len(sums) != NumStages {
			t.Fatalf("summaries = %d entries, want %d", len(sums), NumStages)
		}
		for _, name := range stageNames {
			if _, ok := sums[name]; !ok {
				t.Fatalf("summaries lack stage %q", name)
			}
		}
	}
}

func TestResetEmptiesStageStats(t *testing.T) {
	tr := New()
	tr.Reset(1)
	for i := 0; i < 10; i++ {
		h := hashOf(i)
		for s := Stage(0); s < NumStages; s++ {
			tr.Stamp(h, s)
		}
	}
	if got := tr.Summaries()["confirm"].Count; got != 10 {
		t.Fatalf("confirm count before reset = %d, want 10", got)
	}
	tr.Reset(1)
	for name, st := range tr.Summaries() {
		if st != (report.StageStat{}) {
			t.Fatalf("stage %s after reset = %+v, want zero", name, st)
		}
	}
	if len(tr.Recent()) != 0 || tr.Pending() != 0 {
		t.Fatal("reset kept traces or live spans")
	}
	// The tracer counts afresh after a reset.
	h := hashOf(99)
	tr.Stamp(h, StageSubmit)
	tr.Stamp(h, StageConfirm)
	if got := tr.Summaries()["confirm"]; got.Count != 1 || got.P50S != got.P99S {
		t.Fatalf("confirm after one fresh span = %+v", got)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Reset(0.5)
	tr.Stamp(hashOf(1), StageSubmit)
	if tr.Enabled() || tr.Sampled(hashOf(1)) || tr.Pending() != 0 ||
		tr.Recent() != nil || tr.Summaries()["admit"].Count != 0 ||
		tr.SampleRate() != 0 || tr.SampledCount() != 0 {
		t.Fatal("nil tracer must act disabled")
	}
}

func TestRingBufferBounded(t *testing.T) {
	tr := New()
	tr.Reset(1)
	total := RingSize + 37
	for i := 0; i < total; i++ {
		h := hashOf(i)
		tr.Stamp(h, StageSubmit)
		tr.Stamp(h, StageConfirm)
	}
	recent := tr.Recent()
	if len(recent) != RingSize {
		t.Fatalf("ring kept %d traces, want %d", len(recent), RingSize)
	}
	// Oldest retained trace is the (total-RingSize)-th completion.
	if want := hashOf(total - RingSize).Hex(); recent[0].ID != want {
		t.Fatalf("oldest retained = %s, want %s", recent[0].ID, want)
	}
	if newest := hashOf(total - 1).Hex(); recent[len(recent)-1].ID != newest {
		t.Fatalf("newest retained = %s, want %s", recent[len(recent)-1].ID, newest)
	}
}

func TestConcurrentStamping(t *testing.T) {
	tr := New()
	tr.Reset(1)
	const txs = 200
	var wg sync.WaitGroup
	// Every stage stamped from 4 goroutines at once: the span's stage
	// sequence must still come out canonical per transaction.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < txs; i++ {
				h := hashOf(i)
				for s := Stage(0); s < NumStages; s++ {
					tr.Stamp(h, s)
				}
			}
		}()
	}
	wg.Wait()
	recent := tr.Recent()
	if len(recent) == 0 {
		t.Fatal("no traces completed")
	}
	want := StageNames()
	for _, trc := range recent {
		if len(trc.Stages) != len(want) {
			t.Fatalf("trace %s has %d points, want %d", trc.ID, len(trc.Stages), len(want))
		}
		for i, p := range trc.Stages {
			if p.Stage != want[i] {
				t.Fatalf("trace %s point %d = %s, want %s", trc.ID, i, p.Stage, want[i])
			}
		}
	}
}
