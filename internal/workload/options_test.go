package workload

import (
	"strings"
	"testing"
	"time"
)

func TestParseOptions(t *testing.T) {
	opts, err := ParseOptions([]string{"readprop=0.9", "distribution=uniform"})
	if err != nil {
		t.Fatal(err)
	}
	if opts["readprop"] != "0.9" || opts["distribution"] != "uniform" {
		t.Fatalf("bad parse: %v", opts)
	}
	// Values may themselves contain '='.
	opts, err = ParseOptions([]string{"expr=a=b"})
	if err != nil || opts["expr"] != "a=b" {
		t.Fatalf("value with '=': %v %v", opts, err)
	}
	for _, bad := range [][]string{
		{"noequals"},
		{"=val"},
		{"k=1", "k=2"},
	} {
		if _, err := ParseOptions(bad); err == nil {
			t.Fatalf("accepted %v", bad)
		}
	}
}

func TestDecoderTypesAndDefaults(t *testing.T) {
	d := NewDecoder(Options{
		"i": "42", "u": "7", "f": "0.25", "b": "true", "s": "zipfian", "d": "15ms", "empty": "",
	})
	if got := d.Int("i", 0); got != 42 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.Uint64("u", 0); got != 7 {
		t.Fatalf("Uint64 = %d", got)
	}
	if got := d.Float("f", 0); got != 0.25 {
		t.Fatalf("Float = %v", got)
	}
	if !d.Bool("b", false) {
		t.Fatal("Bool = false")
	}
	if got := d.String("s", ""); got != "zipfian" {
		t.Fatalf("String = %q", got)
	}
	if got := d.Duration("d", 0); got != 15*time.Millisecond {
		t.Fatalf("Duration = %v", got)
	}
	if got := d.Int("missing", 99); got != 99 {
		t.Fatalf("default = %d", got)
	}
	if got := d.Duration("missing", time.Second); got != time.Second {
		t.Fatalf("Duration default = %v", got)
	}
	// Has tells an empty value from an absent key.
	if !d.Has("empty") || d.Has("missing") {
		t.Fatalf("Has(empty)=%v Has(missing)=%v", d.Has("empty"), d.Has("missing"))
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderErrors(t *testing.T) {
	d := NewDecoder(Options{"records": "many"})
	d.Int("records", 0)
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("conversion error lost: %v", err)
	}
	d = NewDecoder(Options{"heartbeat": "fast"})
	d.Duration("heartbeat", 0)
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), `heartbeat="fast"`) {
		t.Fatalf("duration conversion error lost: %v", err)
	}
	// A factory's own range check reports like a conversion failure, and
	// the first rejection wins.
	d = NewDecoder(Options{"workers": "0", "batch": "-1"})
	d.Reject("workers", "want a positive value")
	d.Reject("batch", "want a positive value")
	if err := d.Finish(); err == nil || !strings.Contains(err.Error(), `workers="0": want a positive value`) {
		t.Fatalf("rejection lost: %v", err)
	}
	// Unconsumed keys are a typo'd -wopt / -popt; the error lists the
	// keys the factory did consult.
	d = NewDecoder(Options{"recrods": "10"})
	d.Int("records", 0)
	d.Has("valuesize")
	err := d.Finish()
	if err == nil || !strings.Contains(err.Error(), "[recrods]") ||
		!strings.Contains(err.Error(), "known: [records valuesize]") {
		t.Fatalf("unknown option not flagged with the known keys: %v", err)
	}
}
