package main

import (
	"os"
	"os/exec"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the CLI: re-executed with
// the marker variable set it runs main() on its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_TEST_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runMain(args ...string) (stdout string, err error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_TEST_RUN_MAIN=1")
	out, err := cmd.Output()
	return string(out), err
}

// TestListMatchesDesignIndex: -list prints exactly the IDs DESIGN.md's
// Experiment index tabulates, so neither can gain or lose a figure
// alone.
func TestListMatchesDesignIndex(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(doc), "\n## Experiment index\n")
	if !found {
		t.Fatal("DESIGN.md has no Experiment index section")
	}
	// Table rows are "| `file.go` | ids… |"; an ID is figN, figNx or abl-x.
	idRE := regexp.MustCompile(`\b(fig\d+[a-z]?|abl-[a-z]+)\b`)
	want := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		if cells := strings.Split(line, "|"); len(cells) == 4 && strings.Contains(cells[1], ".go`") {
			for _, id := range idRE.FindAllString(cells[2], -1) {
				want[id] = true
			}
		}
	}
	out, err := runMain("-list")
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	got := make(map[string]bool)
	for _, id := range strings.Fields(out) {
		got[id] = true
	}
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("-list prints %v, DESIGN.md indexes %v", got, want)
	}
}

// TestUnknownExperimentExitsNonZero: a misspelled -run id must fail,
// not print nothing and succeed.
func TestUnknownExperimentExitsNonZero(t *testing.T) {
	if _, err := runMain("-run", "fig999"); err == nil {
		t.Fatal("-run fig999 exited 0")
	}
}
