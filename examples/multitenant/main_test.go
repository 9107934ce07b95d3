package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.txt if it moved")

// TestOutputGolden holds the example's stdout to testdata/output.txt byte
// for byte. `go test ./examples/multitenant -update` rewrites the file if
// it moved and fails naming it, so a re-record is never silent.
func TestOutputGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
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
