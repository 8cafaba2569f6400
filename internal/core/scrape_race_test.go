package core

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/span"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// TestScrapeWhileEngineSteps hammers the whole introspection surface
// — /metrics, /debug/sched, /debug/flight (including ?save=1 dumps)
// — from several goroutines while the engine runs rounds with the
// full observability stack attached. Its job is to fail under -race
// if any Observer/Tracer/Recorder path touches shared state without
// its lock; responses just need to be well-formed 200s.
func TestScrapeWhileEngineSteps(t *testing.T) {
	o := obs.New()
	o.SetTracer(span.New("race-test", 0))
	rec := flight.New(8, filepath.Join(t.TempDir(), "flight.json"))

	specs := workload.BatchJobs("a", zoo.MustGet("resnet50"), 6, 1, 30)
	specs = append(specs, workload.BatchJobs("b", zoo.MustGet("vae"), 6, 2, 30)...)
	specs, _ = workload.AssignIDs(specs)
	sim, err := New(Config{
		Cluster: mixedCluster(),
		Specs:   specs,
		Seed:    11,
		Obs:     o,
		Flight:  rec,
	}, MustNewFairPolicy(FairConfig{EnableTrading: true}))
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(o, obs.MuxOptions{Flight: rec}))
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	paths := []string{"/metrics", "/debug/sched", "/debug/flight", "/debug/flight?save=1", "/healthz"}
	for _, p := range paths {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					t.Error(err)
				}
				_ = resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d", url, resp.StatusCode)
					return
				}
			}
		}(srv.URL + p)
	}

	if _, err := sim.Run(simclock.Time(96 * simclock.Hour)); err != nil {
		t.Error(err)
	}
	close(done)
	wg.Wait()
}
