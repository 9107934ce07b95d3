package energy

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"pipetune/internal/params"
	"pipetune/internal/xrand"
)

func TestAvgPowerMonotoneInCores(t *testing.T) {
	pm := DefaultPowerModel()
	prev := 0.0
	for _, cores := range []int{1, 2, 4, 8, 16} {
		p, err := pm.AvgPower(params.SysConfig{Cores: cores, MemoryGB: 8}, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("power not increasing with cores at %d: %v <= %v", cores, p, prev)
		}
		prev = p
	}
}

func TestAvgPowerComputeHigherThanSync(t *testing.T) {
	pm := DefaultPowerModel()
	sys := params.DefaultSysConfig()
	compute, _ := pm.AvgPower(sys, 1.0)
	syncing, _ := pm.AvgPower(sys, 0.0)
	if compute <= syncing {
		t.Fatalf("compute power %v should exceed sync power %v", compute, syncing)
	}
	idleFloor := pm.IdleWatts
	if syncing <= idleFloor {
		t.Fatalf("sync power %v should still exceed idle %v", syncing, idleFloor)
	}
}

func TestAvgPowerValidation(t *testing.T) {
	pm := DefaultPowerModel()
	if _, err := pm.AvgPower(params.SysConfig{Cores: 0, MemoryGB: 8}, 0.5); err == nil {
		t.Fatal("invalid sysconfig accepted")
	}
	if _, err := pm.AvgPower(params.DefaultSysConfig(), 1.5); err == nil {
		t.Fatal("compute fraction > 1 accepted")
	}
	if _, err := pm.AvgPower(params.DefaultSysConfig(), -0.1); err == nil {
		t.Fatal("negative compute fraction accepted")
	}
}

func TestSeriesIntegratesToAvgTimesDuration(t *testing.T) {
	pm := DefaultPowerModel()
	sys := params.DefaultSysConfig()
	const duration = 300.0
	series, err := pm.Series(xrand.New(1), sys, 0.7, duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != int(duration)+1 {
		t.Fatalf("series length %d, want %d", len(series), int(duration)+1)
	}
	energy := Integrate(series)
	avg, _ := pm.AvgPower(sys, 0.7)
	want := avg * duration
	if math.Abs(energy-want)/want > 0.03 {
		t.Fatalf("integrated energy %v, want ~%v", energy, want)
	}
}

func TestSeriesRejectsBadDuration(t *testing.T) {
	pm := DefaultPowerModel()
	if _, err := pm.Series(xrand.New(1), params.DefaultSysConfig(), 0.5, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestTrialEnergyClosedForm(t *testing.T) {
	pm := DefaultPowerModel()
	sys := params.DefaultSysConfig()
	e, err := pm.TrialEnergy(sys, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	avg, _ := pm.AvgPower(sys, 0.5)
	if math.Abs(e-avg*100) > 1e-9 {
		t.Fatalf("TrialEnergy = %v, want %v", e, avg*100)
	}
	if _, err := pm.TrialEnergy(sys, 0.5, -1); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestPDUReadQuantisedNearTruth(t *testing.T) {
	pdu := NewPDU(7)
	if err := pdu.SetPower(3, 104.2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		w, err := pdu.Read(3)
		if err != nil {
			t.Fatal(err)
		}
		// 1.5% precision on ~104 W keeps readings within ~3 W.
		if w < 100 || w > 109 {
			t.Fatalf("PDU reading %d W too far from 104.2 W truth", w)
		}
	}
}

func TestPDUOutletValidation(t *testing.T) {
	pdu := NewPDU(1)
	if err := pdu.SetPower(-1, 10); err == nil {
		t.Fatal("negative outlet accepted")
	}
	if err := pdu.SetPower(NumOutlets, 10); err == nil {
		t.Fatal("out-of-range outlet accepted")
	}
	if err := pdu.SetPower(0, -5); err == nil {
		t.Fatal("negative watts accepted")
	}
	if _, err := pdu.Read(99); err == nil {
		t.Fatal("read of invalid outlet accepted")
	}
}

func TestPDUOverHTTP(t *testing.T) {
	pdu := NewPDU(11)
	for outlet, watts := range map[int]float64{0: 60, 1: 80.5} {
		if err := pdu.SetPower(outlet, watts); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(pdu)
	defer srv.Close()

	poll := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr powerResponse
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return pr.Watts
	}
	if w0 := poll("/power?outlet=0"); w0 < 55 || w0 > 65 {
		t.Fatalf("outlet 0 over HTTP = %v W, want ~60", w0)
	}
	if total := poll("/power"); total < 130 || total > 152 {
		t.Fatalf("aggregate over HTTP = %v W, want ~140.5", total)
	}
}

func TestPDUHTTPErrors(t *testing.T) {
	srv := httptest.NewServer(NewPDU(1))
	defer srv.Close()

	for _, path := range []string{"/power?outlet=banana", "/power?outlet=99"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s status = %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d, want 404", resp.StatusCode)
	}
	postResp, err := http.Post(srv.URL+"/power", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST status = %d, want 404", postResp.StatusCode)
	}
}
