package blockbench

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"blockbench/internal/workload"
)

// ycsb-scan exists to prove the workload registry seam: it plugs a new
// read-mostly variant into the CLI and experiments through this one
// file and its Register call — no CLI flags, no experiment lists, no
// driver edits.

func init() {
	workload.MustRegister(workload.Spec{
		Name:        "ycsb-scan",
		Description: "read-mostly YCSB-C-style mix: short sequential scan windows over the record set",
		Contracts:   []string{"ycsb"},
		New: func(opts workload.Options) (any, error) {
			d := workload.NewDecoder(opts)
			w := &YCSBScanWorkload{
				YCSBWorkload: YCSBWorkload{
					Records:      d.Int("records", 0),
					ValueSize:    d.Int("valuesize", 0),
					ReadProp:     d.Float("readprop", 0),
					UpdateProp:   d.Float("updateprop", 0),
					Distribution: d.String("distribution", ""),
				},
				ScanLen: d.Int("scanlen", 0),
			}
			if err := d.Finish(); err != nil {
				return nil, err
			}
			return w, nil
		},
	})
}

// YCSBScanWorkload is the read-mostly YCSB variant (YCSB-C-style, 95%
// reads by default): reads come in scan windows — the KeyChooser picks
// a start record and the next ScanLen operations for that client read
// consecutive keys, modelling cursor scans over hot ranges.
type YCSBScanWorkload struct {
	YCSBWorkload
	ScanLen int // keys read per scan window (default 10)

	scanFillOnce sync.Once
	// cursors pack one scan window per client slot as start<<16 |
	// remaining. A client's one generator is its slot's only writer;
	// the slots are atomic because clients 256 apart share one.
	cursors []atomic.Uint64
}

// Name implements Workload.
func (w *YCSBScanWorkload) Name() string { return "ycsb-scan" }

// lazyFill applies defaults exactly once; see YCSBWorkload.lazyFill.
func (w *YCSBScanWorkload) lazyFill() { w.scanFillOnce.Do(w.fill) }

func (w *YCSBScanWorkload) fill() {
	if w.ScanLen <= 0 {
		w.ScanLen = 10
	}
	if w.ScanLen > 0xffff {
		w.ScanLen = 0xffff // the window cursor packs the remainder into 16 bits
	}
	// The mix is two-way (scan reads vs updates), so the proportions
	// are normalized to sum to 1 with ReadProp winning a conflict.
	switch {
	case w.ReadProp == 0 && w.UpdateProp == 0:
		w.ReadProp, w.UpdateProp = 0.95, 0.05
	case w.ReadProp == 0:
		w.ReadProp = 1 - w.UpdateProp
	default:
		w.UpdateProp = 1 - w.ReadProp
	}
	w.cursors = make([]atomic.Uint64, 256)
	w.YCSBWorkload.lazyFill()
}

// Init implements Workload: preloads the record set.
func (w *YCSBScanWorkload) Init(c *Cluster, rng *rand.Rand) error {
	w.lazyFill()
	return w.YCSBWorkload.Init(c, rng)
}

// Next implements Workload.
func (w *YCSBScanWorkload) Next(clientID int, rng *rand.Rand) Op {
	w.lazyFill()
	// The read/update mix is drawn per operation, so ReadProp is the
	// exact read fraction; an update interleaves without cancelling the
	// client's open scan window.
	if rng.Float64() >= w.ReadProp {
		return Op{Contract: "ycsb", Method: "write",
			Args: [][]byte{ycsbKey(w.chooser.Next(rng)), randValue(rng, w.ValueSize)}}
	}
	slot := &w.cursors[clientID%len(w.cursors)]
	if cur := slot.Load(); cur&0xffff != 0 {
		slot.Store(cur - 1)
		start, rem := int(cur>>16), int(cur&0xffff)
		return Op{Contract: "ycsb", Method: "read",
			Args: [][]byte{ycsbKey((start + w.ScanLen - rem) % w.Records)}}
	}
	// Open a new scan window: read its first key now, leave the rest
	// for the following calls.
	start := w.chooser.Next(rng)
	slot.Store(uint64(start)<<16 | uint64(w.ScanLen-1))
	return Op{Contract: "ycsb", Method: "read", Args: [][]byte{ycsbKey(start)}}
}
