// Custom workload: how to plug a new benchmark into the framework via
// the Workload interface (the paper's IWorkloadConnector) — here an IoT
// telemetry feed in which sensors append readings under device-scoped
// keys, and a monitor occasionally reads the latest value back.
//
// The workload reuses the YCSB key-value contract, so it needs no new
// on-chain code; it demonstrates that adding a workload is just
// implementing Name/Contracts/Init/Next — and that registering it with
// blockbench.RegisterWorkload makes it buildable by name with generic
// key=val options, exactly like the shipped workloads.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"sync/atomic"
	"time"

	"blockbench"
)

// IoTWorkload simulates sensors writing time-series readings.
type IoTWorkload struct {
	Devices int
	seq     []atomic.Uint64
}

// Name implements blockbench.Workload.
func (w *IoTWorkload) Name() string { return "iot-telemetry" }

// Contracts implements blockbench.Workload.
func (w *IoTWorkload) Contracts() []string { return []string{"ycsb"} }

// Init implements blockbench.Workload.
func (w *IoTWorkload) Init(c *blockbench.Cluster, rng *rand.Rand) error {
	w.seq = make([]atomic.Uint64, w.Devices)
	return nil
}

// Next implements blockbench.Workload: 90% sensor appends, 10% monitor
// reads of the device's latest reading.
func (w *IoTWorkload) Next(clientID int, rng *rand.Rand) blockbench.Op {
	dev := rng.Intn(w.Devices)
	latest := w.seq[dev].Load()
	if latest > 0 && rng.Float64() < 0.1 {
		return blockbench.Op{Contract: "ycsb", Method: "read",
			Args: [][]byte{deviceKey(dev, latest)}}
	}
	n := w.seq[dev].Add(1)
	reading := make([]byte, 16)
	binary.BigEndian.PutUint64(reading, uint64(time.Now().UnixNano()))
	binary.BigEndian.PutUint64(reading[8:], rng.Uint64()%4096) // the measurement
	return blockbench.Op{Contract: "ycsb", Method: "write",
		Args: [][]byte{deviceKey(dev, n), reading}}
}

func deviceKey(dev int, seq uint64) []byte {
	k := make([]byte, 12)
	binary.BigEndian.PutUint32(k, uint32(dev))
	binary.BigEndian.PutUint64(k[4:], seq)
	return k
}

func main() {
	// Plug the workload into the registry, then build it by name — the
	// same seam the blockbench CLI's -workload/-wopt flags resolve
	// through, so a registered workload needs no CLI changes.
	err := blockbench.RegisterWorkload(blockbench.WorkloadSpec{
		Name:        "iot-telemetry",
		Description: "sensors appending readings under device-scoped keys",
		New: func(opts blockbench.WorkloadOptions) (blockbench.Workload, error) {
			d := blockbench.NewWorkloadDecoder(opts)
			return &IoTWorkload{Devices: d.Int("devices", 32)}, d.Finish()
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	w, err := blockbench.NewWorkload("iot-telemetry", blockbench.WorkloadOptions{"devices": "32"})
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := blockbench.NewCluster(blockbench.ClusterConfig{
		Kind:      blockbench.Parity, // low-latency PoA suits telemetry
		Nodes:     4,
		Contracts: w.Contracts(),
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	cluster.Start()

	report, err := blockbench.Run(cluster, w, blockbench.RunConfig{
		Clients: 4, Threads: 2, Rate: 16, Duration: 5 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report)
	fmt.Printf("ingested %d readings at %.1f/s, p99 commit latency %.3fs\n",
		report.Committed, report.Throughput, report.LatencyP99)
}
