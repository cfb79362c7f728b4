// Registry: the application-layer extension seam. A workload registers
// a Spec (name, description, contracts, options-driven factory) and the
// driver CLI, experiments and framework users build instances by name —
// the workload-layer mirror of platform.Register.
//
// The package deliberately types factories as returning any: it sits
// below the root blockbench package (which defines the Workload
// interface over Cluster), so the root package narrows the value with a
// type assertion in blockbench.NewWorkload.
package workload

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options carries key=val parameters into a factory: -wopt into a
// workload's, -popt into a platform preset's (platform.Config.Options).
type Options map[string]string

// Spec describes one registered workload.
type Spec struct {
	// Name is the registry key (the CLI's -workload value).
	Name string
	// Description is a one-line summary shown in CLI usage listings.
	Description string
	// Contracts lists the contract names the workload deploys, without
	// instantiating it.
	Contracts []string
	// New builds a workload instance from options. The returned value
	// must implement blockbench.Workload.
	New func(opts Options) (any, error)
}

var (
	regMu sync.RWMutex
	specs = make(map[string]Spec)
)

// Register plugs a workload spec into the framework. It errors on a
// duplicate or empty name and on a missing factory.
func Register(s Spec) error {
	if s.Name == "" {
		return fmt.Errorf("workload: Register: empty name")
	}
	if s.New == nil {
		return fmt.Errorf("workload: Register(%q): New factory is mandatory", s.Name)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := specs[s.Name]; dup {
		return fmt.Errorf("workload: Register(%q): already registered", s.Name)
	}
	specs[s.Name] = s
	return nil
}

// MustRegister is Register for package init blocks: it panics on error.
func MustRegister(s Spec) {
	if err := Register(s); err != nil {
		panic(err)
	}
}

// Lookup returns the spec registered under a name.
func Lookup(name string) (Spec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := specs[name]
	if !ok {
		known := make([]string, 0, len(specs))
		for k := range specs {
			known = append(known, k)
		}
		sort.Strings(known)
		return Spec{}, fmt.Errorf("workload: unknown name %q (registered: %v)", name, known)
	}
	return s, nil
}

// New builds a registered workload by name.
func New(name string, opts Options) (any, error) {
	s, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	w, err := s.New(opts)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", name, err)
	}
	return w, nil
}

// Names lists registered workloads in sorted order — deterministic
// regardless of which file's init ran first, so CLI listings and
// registry tests never depend on registration sequencing.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(specs))
	for name := range specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line summary of a registered workload ("" if
// unknown).
func Describe(name string) string {
	regMu.RLock()
	defer regMu.RUnlock()
	return specs[name].Description
}

// Contracts returns the contract names a registered workload deploys,
// without instantiating it (nil if unknown).
func Contracts(name string) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]string(nil), specs[name].Contracts...)
}

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
