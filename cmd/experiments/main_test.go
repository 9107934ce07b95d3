package main

import (
	"strings"
	"testing"

	"pipetune/internal/experiments"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("")
	if err != nil || len(all) != len(experiments.Experiments) {
		t.Fatalf("empty -only selected %d experiments (err %v), want all %d", len(all), err, len(experiments.Experiments))
	}
	got, err := selectExperiments("table2, fig1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "fig1" || got[1].ID != "table2" {
		t.Fatalf("-only table2,fig1 selected %v, want fig1 then table2", got)
	}
	// An unknown id fails the whole selection, naming every unknown id.
	got, err = selectExperiments("fig1,nosuch,alsonot")
	if err == nil {
		t.Fatalf("-only with unknown ids selected %d experiments and no error", len(got))
	}
	for _, id := range []string{`"nosuch"`, `"alsonot"`} {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name %s", err, id)
		}
	}
	if strings.Contains(err.Error(), "fig1") {
		t.Errorf("error %q names the known id fig1", err)
	}
}
