package blockbench

import (
	"fmt"
	"math/rand"
	"sync"

	"blockbench/internal/workload"
)

func init() {
	mustRegisterWorkload(WorkloadSpec{
		Name:        "ycsb",
		Description: "key-value macro benchmark: read/update mix over YCSB's zipfian or uniform request distribution",
		New: func(opts WorkloadOptions) (Workload, error) {
			d := NewWorkloadDecoder(opts)
			w := &YCSBWorkload{
				Records:      d.Int("records", 0),
				ReadProp:     d.Float("readprop", 0.5),
				Distribution: d.String("distribution", "zipfian"),
			}
			if w.ReadProp <= 0 || w.ReadProp > 1 {
				d.Reject("readprop", "want a share in (0, 1]")
			}
			if w.Distribution != "zipfian" && w.Distribution != "uniform" {
				d.Reject("distribution", "want zipfian or uniform")
			}
			return w, d.Finish()
		},
	})
}

// ycsbValueSize is the bytes of every written value (100, as in the
// paper).
const ycsbValueSize = 100

// YCSBWorkload is the key-value macro benchmark: a preloaded record set
// and a read/update mix with YCSB's request distributions. Every
// operation addresses a preloaded record.
type YCSBWorkload struct {
	Records      int     // preloaded records (default 1000)
	ReadProp     float64 // share of reads (default 0.5); the rest update
	Distribution string  // zipfian (default) or uniform

	fillOnce sync.Once
	chooser  workload.KeyChooser
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
	if w.ReadProp == 0 {
		w.ReadProp = 0.5
	}
	if w.Distribution == "uniform" {
		w.chooser = workload.Uniform{N: w.Records}
	} else {
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
			Args: [][]byte{ycsbKey(i), randValue(rng, ycsbValueSize)}}
	}
	return c.preloadOps(ops, 200)
}

// Next implements Workload.
func (w *YCSBWorkload) Next(clientID int, rng *rand.Rand) Op {
	w.lazyFill()
	if rng.Float64() < w.ReadProp {
		return Op{Contract: "ycsb", Method: "read",
			Args: [][]byte{ycsbKey(w.chooser.Next(rng))}}
	}
	return Op{Contract: "ycsb", Method: "write",
		Args: [][]byte{ycsbKey(w.chooser.Next(rng)), randValue(rng, ycsbValueSize)}}
}
