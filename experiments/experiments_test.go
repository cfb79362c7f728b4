package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// tiny is an even smaller scale than Quick, for unit tests.
var tiny = Scale{Duration: 1500 * time.Millisecond, Shrink: 10}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig13c", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "abl-inbox", "abl-cache", "abl-signing"}
	// IDs is in figure order: -list and -run all print in it.
	if ids := IDs(); !reflect.DeepEqual(ids, want) {
		t.Fatalf("IDs() = %v, want %v", ids, want)
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if _, ok := Get("fig99"); ok {
		t.Fatal("Get of an unknown ID succeeded")
	}
}

// TestFig11CPUHeavyShape runs Fig 11 at full scale — seconds since the
// EVM's memory growth became amortised, minutes before — and pins the
// modelled part of every cell: which runs die of memory (the paper's 'X':
// the geth memory model at the largest size, on the three presets that
// use it) and the peak footprint of the others, to the 0.1 MB printed.
// The values are the parent commit's full-scale output; times are the
// harness's and are not pinned.
func TestFig11CPUHeavyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run too heavy for -short")
	}
	res, err := Fig11CPUHeavy(Full)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]string{ // platform -> cell at n = 10^4, 10^5, 10^6
		"ethereum":    {"42.3 MB", "230.9 MB", "X"},
		"quorum":      {"42.3 MB", "230.9 MB", "X"},
		"sharded":     {"42.3 MB", "230.9 MB", "X"},
		"parity":      {"7.7 MB", "19.9 MB", "142.3 MB"},
		"hyperledger": {"3.6 MB", "4.5 MB", "13.5 MB"},
	}
	got := map[string][]string{}
	for _, row := range res.Rows {
		platform, cell := strings.Fields(row)[0], "X"
		if _, mem, ok := strings.Cut(row, "peak mem"); ok {
			cell = strings.TrimSpace(mem)
		} else if !strings.Contains(row, "-> X (evm: out of memory)") {
			t.Errorf("unexpected row %q", row)
		}
		got[platform] = append(got[platform], cell)
	}
	for platform, cells := range want {
		if fmt.Sprint(got[platform]) != fmt.Sprint(cells[:]) {
			t.Errorf("%s: cells %v, want %v", platform, got[platform], cells)
		}
	}
	if len(got) != len(want) {
		t.Errorf("platforms %v, want %d of them", got, len(want))
	}
	t.Log("\n" + res.String())
}

func TestFig13AnalyticsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run too heavy for -short")
	}
	res, err := Fig13Analytics(Scale{Duration: time.Second, Shrink: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	t.Log("\n" + res.String())
}

func TestFig14HStoreBaseline(t *testing.T) {
	tput, err := runHStore("ycsb", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	tputSB, err := runHStore("smallbank", 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	// H-Store YCSB must be far above any blockchain (>10k tx/s) and
	// Smallbank slower than YCSB (2PC cost).
	if tput < 10_000 {
		t.Fatalf("h-store ycsb only %.0f tx/s", tput)
	}
	if tputSB >= tput {
		t.Fatalf("smallbank (%.0f) not slower than ycsb (%.0f)", tputSB, tput)
	}
	t.Logf("h-store: ycsb=%.0f smallbank=%.0f", tput, tputSB)
}

func TestFig10PartitionAttackShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run too heavy for -short")
	}
	res, err := Fig10PartitionAttack(Scale{Duration: 3 * time.Second, Shrink: 10})
	if err != nil {
		t.Fatal(err)
	}
	out := res.String()
	t.Log("\n" + out)
	// Hyperledger must report zero stale blocks.
	for _, row := range res.Rows {
		if strings.HasPrefix(row, "hyperledger") && !strings.Contains(row, "stale=  0") {
			t.Fatalf("hyperledger forked: %s", row)
		}
	}
}
