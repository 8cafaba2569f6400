package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// benchPoints is sized so one iteration runs 8 independent
// simulations; with >1 core the parallel benchmark should approach
// workers× the serial throughput (≥2× on 4 cores).
func benchPoints(b *testing.B) []Point {
	points := testPoints(8)
	// Warm once so the benchmark measures simulation, not lazy init.
	r := runOne(context.Background(), 0, points[0], false)
	if r.Err != nil {
		b.Fatal(r.Err)
	}
	return points
}

func benchmarkRun(b *testing.B, workers int) {
	points := benchPoints(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		results := Run(context.Background(), points, Options{Workers: workers})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkRun compares the same 8-point sweep at 1 worker vs
// GOMAXPROCS workers. Compare ns/op between the two sub-benchmarks:
//
//	go test -bench 'Run/' -benchtime 3x ./internal/sweep
//
// On a 4-core machine workers=max should be ≥2× faster than
// workers=1 (simulation points are fully independent, so the only
// overheads are channel dispatch and the final tail latency).
func BenchmarkRun(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchmarkRun(b, 1) })
	b.Run(fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		benchmarkRun(b, runtime.GOMAXPROCS(0))
	})
}

// gridPointsJSON is the benchmark's sweep-grid grid: the default
// 200-GPU cluster, 20 users of 40 Poisson jobs (2 an hour, 4 K80-hours
// on average, two zoo models each), 5 policies × 24 seeds.
func gridPointsJSON(b *testing.B) []byte {
	g := Grid{
		Scenario: scenario.Scenario{Trading: true, HorizonHours: 24, QuantumSecs: 360},
		Policies: []string{"gandiva-fair", "tiresias", "gandiva-rr", "static", "fifo"},
	}
	names := workload.DefaultZoo().Names()
	for i := 0; i < 20; i++ {
		g.Scenario.Users = append(g.Scenario.Users, scenario.UserSpec{
			Name: fmt.Sprintf("user%04d", i+1), Jobs: 40, ArrivalsPerHour: 2, MeanK80Hours: 4,
			Models: []string{names[i%len(names)], names[(i+3)%len(names)]},
		})
	}
	for i := int64(0); i < 24; i++ {
		g.Seeds = append(g.Seeds, 42000+i)
	}
	raw, err := json.Marshal(g)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// BenchmarkGridPoints times a sweep's set-up: LoadGrid and Points on
// the grid above, 120 points over 24 traces of 800 jobs.
//
//	go test -run '^$' -bench GridPoints -benchmem ./internal/sweep
func BenchmarkGridPoints(b *testing.B) {
	raw := gridPointsJSON(b)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		g, err := LoadGrid(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		points, err := g.Points(core.AuditStrict)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 120 {
			b.Fatalf("points = %d, want 120", len(points))
		}
	}
}
