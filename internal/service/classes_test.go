package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipetune"
	"pipetune/client"
	"pipetune/internal/cluster"
)

// TestHealthAndFleetReportClusterComposition: on a heterogeneous system,
// /healthz must surface the node-class composition and the spot/on-demand
// split, listing each class row exactly once; GET /v1/fleet reports the
// execution plane only and carries none of it. Legacy single-class
// systems keep /healthz free of the cluster section.
func TestHealthAndFleetReportClusterComposition(t *testing.T) {
	classes, err := cluster.EC2Fleet(2, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t,
		pipetune.WithClusterClasses(classes...),
		pipetune.WithScheduler(pipetune.SchedCheapest))
	// GET /v1/fleet is the remote execution plane's surface, so mount one.
	svc, cl, _ := newRemoteServer(t, Config{System: sys}, 3)
	ctx := context.Background()

	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatal("health omits the cluster composition on a classed system")
	}
	if h.Cluster.Nodes != 6 || h.Cluster.SpotNodes != 3 || h.Cluster.OnDemandNodes != 3 {
		t.Fatalf("health cluster counts %+v, want 6 nodes split 3/3", h.Cluster)
	}
	if len(h.Cluster.Classes) != 6 {
		t.Fatalf("health lists %d classes, want 6", len(h.Cluster.Classes))
	}
	spotRows := 0
	for _, c := range h.Cluster.Classes {
		if c.Spot {
			spotRows++
			if c.RevocationsPerHour != 2 {
				t.Fatalf("spot class %q revocation rate %v, want 2", c.Name, c.RevocationsPerHour)
			}
		}
	}
	if spotRows != 3 {
		t.Fatalf("%d spot classes reported, want 3", spotRows)
	}

	health := serve(t, svc, "GET", "/healthz", nil, http.StatusOK)
	for _, c := range classes {
		if n := strings.Count(health, fmt.Sprintf(`"name":%q`, c.Name)); n != 1 {
			t.Errorf("/healthz lists class %s %d times, want once", c.Name, n)
		}
	}
	fleet := serve(t, svc, "GET", "/v1/fleet", nil, http.StatusOK)
	for _, field := range []string{`"classes"`, `"spotNodes"`, `"onDemandNodes"`, `"name"`} {
		if strings.Contains(fleet, field) {
			t.Errorf("/v1/fleet carries cluster field %s: %s", field, fleet)
		}
	}

	// A legacy system reports no cluster composition at all.
	_, legacy, _ := newRemoteServer(t, Config{}, 3)
	lh, err := legacy.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if lh.Cluster != nil {
		t.Fatalf("legacy health grew a cluster section: %+v", lh.Cluster)
	}
}

// TestSchedMetricsRecorded: finishing a job on a classed system must
// publish sched_placements_total series labelled with the hosting class
// and the placement policy in force.
func TestSchedMetricsRecorded(t *testing.T) {
	classes, err := pipetune.EC2Classes(1)
	if err != nil {
		t.Fatal(err)
	}
	sys := newSystem(t,
		pipetune.WithClusterClasses(classes...),
		pipetune.WithScheduler(pipetune.SchedCheapest))
	svc, err := New(Config{System: sys})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Shutdown() })
	cl := client.New(srv.URL)
	ctx := context.Background()

	st, err := cl.Submit(ctx, smallReq("lenet/mnist"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "sched_placements_total{") {
		t.Fatal("no sched_placements_total series after a classed job")
	}
	if !strings.Contains(text, `policy="cheapest"`) {
		t.Fatal("placements not labelled with the placement policy")
	}
	if !strings.Contains(text, `class="m4.4xlarge"`) &&
		!strings.Contains(text, `class="m5.12xlarge"`) &&
		!strings.Contains(text, `class="m5.24xlarge"`) {
		t.Fatalf("placements not labelled with a hosting class:\n%s", text)
	}
}
