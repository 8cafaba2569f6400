package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/trace"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestEndpoints(t *testing.T) {
	o := New()
	o.BeginRound(1, 360)
	o.PhaseStart(PhaseDecide)
	o.PhaseEnd(PhaseDecide)
	o.EndRound(Round{Active: 1, Events: []trace.Record{decision(5, "alice", gpu.V100, 2)}})

	srv := httptest.NewServer(Handler(o, MuxOptions{}))
	defer srv.Close()

	code, body, _ := get(t, srv, "/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body, ctype := get(t, srv, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(ctype, "text/plain") {
		t.Errorf("content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE gf_round_phase_seconds histogram",
		`gf_round_phase_seconds_bucket{phase="decide"`,
		"gf_rounds_total 1",
		"gf_decisions_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body, ctype = get(t, srv, "/debug/sched")
	if code != 200 || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/debug/sched = %d %q", code, ctype)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if snap.Round != 1 || len(snap.Decisions) != 1 || snap.Decisions[0].User != "alice" {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.PhaseTotals["decide"] <= 0 {
		t.Errorf("phase totals missing decide: %+v", snap.PhaseTotals)
	}
}

func TestMetricsWithNilObserver(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, MuxOptions{}))
	defer srv.Close()
	code, _, _ := get(t, srv, "/metrics")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/metrics on nil observer = %d, want 503", code)
	}
	code, body, _ := get(t, srv, "/debug/sched")
	if code != 200 {
		t.Errorf("/debug/sched on nil observer = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Errorf("invalid JSON: %v", err)
	}
}

func TestServe(t *testing.T) {
	o := New()
	srv, addr, err := Serve("127.0.0.1:0", o, MuxOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz over real listener = %d", resp.StatusCode)
	}
}
