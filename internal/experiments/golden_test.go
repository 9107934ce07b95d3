package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens that moved")

// TestGoldens holds every experiment's rendered table at the quick sizing
// to testdata/<id>.txt byte for byte, from the run its shape test reads.
// The files are exactly the registry's ids. `go test
// ./internal/experiments -update` rewrites the files that moved and fails
// naming them, so a re-record is never silent.
func TestGoldens(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments {
		ids[e.ID] = true
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id, ok := strings.CutSuffix(filepath.Base(f), ".txt"); !ok || !ids[id] {
			t.Errorf("%s is no experiment's golden: delete it", f)
		}
	}
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			if testCfg(e.ID) != quickConfig() {
				t.Skip("-short shrinks this experiment; its golden pins the quick sizing")
			}
			got := result[Result](t, e.ID).Table().Render()
			checkGolden(t, filepath.Join("testdata", e.ID+".txt"), got)
		})
	}
}

// checkGolden compares got with the file at path; under -update it
// rewrites a file that moved or is missing.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	switch {
	case err == nil && string(want) == got:
	case *update:
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("rewrote %s", path)
	case err != nil:
		t.Errorf("%v (go test -update records it)", err)
	default:
		t.Errorf("%s moved (go test -update re-records it): %s", path, firstDiff(string(want), got))
	}
}

// firstDiff names the first line at which two renders differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(w), len(g))
}
