package blockbench

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"blockbench/internal/workload"
)

func init() {
	workload.MustRegister(workload.Spec{
		Name:        "ycsb",
		Description: "key-value macro benchmark: configurable read/update/insert mix over YCSB request distributions",
		Contracts:   []string{"ycsb"},
		New: func(opts workload.Options) (any, error) {
			d := workload.NewDecoder(opts)
			w := &YCSBWorkload{
				Records:      d.Int("records", 0),
				ValueSize:    d.Int("valuesize", 0),
				ReadProp:     d.Float("readprop", 0),
				UpdateProp:   d.Float("updateprop", 0),
				InsertProp:   d.Float("insertprop", 0),
				Distribution: d.String("distribution", ""),
			}
			if err := d.Finish(); err != nil {
				return nil, err
			}
			return w, nil
		},
	})
}

// YCSBWorkload is the key-value macro benchmark: a preloaded record set
// and a configurable read/update/insert mix with YCSB's request
// distributions.
type YCSBWorkload struct {
	Records      int     // preloaded records (default 1000)
	ValueSize    int     // value bytes (default 100, as in the paper)
	ReadProp     float64 // default 0.5
	UpdateProp   float64 // default 0.5
	InsertProp   float64 // default 0
	Distribution string  // zipfian (default), uniform, latest

	fillOnce sync.Once
	chooser  workload.KeyChooser
	inserted atomic.Int64
}

// Name implements Workload.
func (w *YCSBWorkload) Name() string { return "ycsb" }

// Contracts implements Workload.
func (w *YCSBWorkload) Contracts() []string { return []string{"ycsb"} }

// lazyFill applies defaults exactly once: without Init (SkipInit) the
// first callers of Next are the clients' generators, all at once.
func (w *YCSBWorkload) lazyFill() { w.fillOnce.Do(w.fill) }

func (w *YCSBWorkload) fill() {
	if w.Records <= 0 {
		w.Records = 1000
	}
	if w.ValueSize <= 0 {
		w.ValueSize = 100
	}
	if w.ReadProp == 0 && w.UpdateProp == 0 && w.InsertProp == 0 {
		w.ReadProp, w.UpdateProp = 0.5, 0.5
	}
	switch w.Distribution {
	case "uniform":
		w.chooser = workload.Uniform{N: w.Records}
	case "latest":
		w.chooser = workload.NewLatest(w.Records)
	default:
		w.Distribution = "zipfian"
		w.chooser = workload.NewZipfian(w.Records)
	}
}

func ycsbKey(i int) []byte { return []byte(fmt.Sprintf("user%010d", i)) }

// Init implements Workload: preloads the record set.
func (w *YCSBWorkload) Init(c *Cluster, rng *rand.Rand) error {
	w.lazyFill()
	ops := make([]Op, w.Records)
	for i := range ops {
		ops[i] = Op{Contract: "ycsb", Method: "write",
			Args: [][]byte{ycsbKey(i), randValue(rng, w.ValueSize)}}
	}
	w.inserted.Store(int64(w.Records))
	return c.preloadOps(ops, 200)
}

// KeyOf implements KeyedWorkload: every YCSB operation addresses the
// single record key in its first argument.
func (w *YCSBWorkload) KeyOf(op Op) [][]byte { return OpKeys(op) }

// Next implements Workload.
func (w *YCSBWorkload) Next(clientID int, rng *rand.Rand) Op {
	w.lazyFill()
	p := rng.Float64()
	switch {
	case p < w.ReadProp:
		return Op{Contract: "ycsb", Method: "read",
			Args: [][]byte{ycsbKey(w.chooser.Next(rng))}}
	case p < w.ReadProp+w.UpdateProp:
		return Op{Contract: "ycsb", Method: "write",
			Args: [][]byte{ycsbKey(w.chooser.Next(rng)), randValue(rng, w.ValueSize)}}
	default:
		i := int(w.inserted.Add(1))
		return Op{Contract: "ycsb", Method: "write",
			Args: [][]byte{ycsbKey(i), randValue(rng, w.ValueSize)}}
	}
}
