package main

import (
	"flag"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.txt if it moved")

// TestOutputGolden holds the example's stdout to testdata/output.txt byte
// for byte. `go test ./examples/imageclass -update` rewrites the file if
// it moved and fails naming it, so a re-record is never silent. The
// output closes on the claim that history helps, so the warm run's
// tuning time must also be below the cold run's.
func TestOutputGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	cold, warm := tuningTime(t, b.String(), "cold (no history)"), tuningTime(t, b.String(), "warm (after mnist job)")
	if warm >= cold {
		t.Errorf("warm tuning %.1f s, cold %.1f s: the output claims history helps", warm, cold)
	}
	const path = "testdata/output.txt"
	want, err := os.ReadFile(path)
	switch {
	case err == nil && string(want) == b.String():
	case *update:
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("rewrote %s", path)
	case err != nil:
		t.Errorf("%v (go test -update records it)", err)
	default:
		t.Errorf("%s moved (go test -update re-records it):\n--- want\n%s--- got\n%s", path, want, b.String())
	}
}

// tuningTime reads the tuning column of the table row labelled row.
func tuningTime(t *testing.T, out, row string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, row); ok {
			fields := strings.Fields(rest)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("row %q: %v", row, err)
			}
			return v
		}
	}
	t.Fatalf("no row %q in the output", row)
	return 0
}
