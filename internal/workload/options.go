package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Options carries key=val parameters into a factory: -wopt into a
// workload's, -popt into a platform preset's (platform.Config.Options).
type Options map[string]string

// ParseOptions turns repeated "key=val" CLI arguments (-wopt, -popt)
// into Options.
func ParseOptions(kvs []string) (Options, error) {
	opts := make(Options, len(kvs))
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("option %q is not key=val", kv)
		}
		if _, dup := opts[k]; dup {
			return nil, fmt.Errorf("option %q given twice", k)
		}
		opts[k] = v
	}
	return opts, nil
}

// Decoder reads typed values out of Options, accumulating the first
// conversion error and tracking which keys were consumed so factories
// can reject typos with Finish. The keys a factory reads are its whole
// option surface: there is no separate list to keep in step.
type Decoder struct {
	opts Options
	used map[string]bool
	err  error
}

// NewDecoder wraps options for typed access.
func NewDecoder(opts Options) *Decoder {
	return &Decoder{opts: opts, used: make(map[string]bool, len(opts))}
}

func (d *Decoder) lookup(key string) (string, bool) {
	d.used[key] = true
	v, ok := d.opts[key]
	return v, ok
}

// Reject records that the factory cannot use key's value — a failed
// conversion here, or a range check in the factory once the value is
// decoded. Finish reports the first rejection.
func (d *Decoder) Reject(key, why string) {
	if d.err == nil {
		d.err = fmt.Errorf("option %s=%q: %s", key, d.opts[key], why)
	}
}

// Int reads an integer option, or def when absent.
func (d *Decoder) Int(key string, def int) int {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		d.Reject(key, "not a number")
		return def
	}
	return n
}

// Uint64 reads an unsigned integer option, or def when absent.
func (d *Decoder) Uint64(key string, def uint64) uint64 {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		d.Reject(key, "not a number")
		return def
	}
	return n
}

// Float reads a float option, or def when absent.
func (d *Decoder) Float(key string, def float64) float64 {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		d.Reject(key, "not a number")
		return def
	}
	return f
}

// Bool reads a boolean option, or def when absent.
func (d *Decoder) Bool(key string, def bool) bool {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		d.Reject(key, "not a boolean")
		return def
	}
	return b
}

// Has reports whether key was given at all, for options whose absence
// means something a value cannot say (derive it, leave it alone).
func (d *Decoder) Has(key string) bool {
	_, ok := d.lookup(key)
	return ok
}

// Duration reads a time.Duration option ("10ms"), or def when absent.
func (d *Decoder) Duration(key string, def time.Duration) time.Duration {
	v, ok := d.lookup(key)
	if !ok {
		return def
	}
	t, err := time.ParseDuration(v)
	if err != nil {
		d.Reject(key, "not a duration (e.g. 10ms)")
		return def
	}
	return t
}

// String reads a string option, or def when absent.
func (d *Decoder) String(key, def string) string {
	if v, ok := d.lookup(key); ok {
		return v
	}
	return def
}

// Finish returns the first rejection, or an error naming any option key
// the factory never consumed (a misspelled or misdirected -wopt/-popt)
// next to the keys it did consult.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	var unknown []string
	for k := range d.opts {
		if !d.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return nil
	}
	known := make([]string, 0, len(d.used))
	for k := range d.used {
		known = append(known, k)
	}
	sort.Strings(unknown)
	sort.Strings(known)
	return fmt.Errorf("unknown option(s) %v (known: %v)", unknown, known)
}
