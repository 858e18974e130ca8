package loadgen

import (
	"context"
	"testing"

	"qoserve/internal/cluster"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
	"qoserve/internal/workload"
)

// longPrefillSpec is the workload behind BENCH_PR7: single-shot requests
// with a heavy prompt tail (p50 512, p90 4096, max 16K) and short outputs.
// Under occupancy balancing a queue holding one 16K prompt counts the same
// as a queue holding one 128-token prompt, so unlucky requests land behind
// monster prefills and the TTFT tail blows out; the predicted-latency
// balancer sees the token backlog in the snapshot and routes around it.
func longPrefillSpec() Spec {
	return Spec{
		Seed:     23,
		Mode:     Closed,
		Requests: 300,
		Workers:  24,
		Classes: []Class{
			{Name: "Q1", Weight: 0.5, Priority: qos.High,
				Prompt: workload.TokenDist{P50: 512, P90: 4096, Max: 16384},
				Decode: workload.TokenDist{P50: 8, P90: 16, Max: 32}},
			{Name: "Q2", Weight: 0.3, Priority: qos.High,
				Prompt: workload.TokenDist{P50: 512, P90: 4096, Max: 16384},
				Decode: workload.TokenDist{P50: 8, P90: 16, Max: 32}},
			{Name: "Q3", Weight: 0.2, Priority: qos.Low,
				Prompt: workload.TokenDist{P50: 512, P90: 4096, Max: 16384},
				Decode: workload.TokenDist{P50: 8, P90: 16, Max: 32}},
		},
	}
}

// benchPredictor is the scoring forest, trained once per benchmark binary.
func benchPredictor(b *testing.B) *predictor.Forest {
	b.Helper()
	f, err := predictor.Trained(model.Llama3_8B_A100_TP1(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// benchLongPrefill drives the long-prefill workload end to end against a
// 4-replica gateway — colocated, or disaggregated into 2 prefill + 2
// decode replicas — under the given balancer. One full workload per
// iteration with a fresh gateway each time so no queue or cache state
// leaks between iterations.
func benchLongPrefill(b *testing.B, mode string, newLB func() cluster.GatewayBalancer) {
	spec := longPrefillSpec()
	var reqs, ttft50, ttft90, ttft99 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := server.Config{
			Model:            model.Llama3_8B_A100_TP1(),
			SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
			Replicas:         4,
			Balancer:         newLB(),
			Classes:          qos.Table3(),
			Timescale:        1000,
		}
		if mode == "disagg" {
			cfg.Mode = "disagg"
			cfg.PrefillReplicas = 2
		}
		srv, err := server.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := Run(context.Background(), srv, spec)
		srv.Close()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Completed != spec.Requests {
			b.Fatalf("completed %d of %d", rep.Completed, spec.Requests)
		}
		reqs += rep.ReqPerSec
		ttft50 += rep.TTFTP50MS
		ttft90 += rep.TTFTP90MS
		ttft99 += rep.TTFTP99MS
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(reqs/n, "req/s")
	b.ReportMetric(ttft50/n, "ttft_p50_ms")
	b.ReportMetric(ttft90/n, "ttft_p90_ms")
	b.ReportMetric(ttft99/n, "ttft_p99_ms")
}

func BenchmarkLongPrefillColocatedLeastLoaded(b *testing.B) {
	benchLongPrefill(b, "colocated", func() cluster.GatewayBalancer { return cluster.LeastLoaded{} })
}

func BenchmarkLongPrefillColocatedPrefix(b *testing.B) {
	benchLongPrefill(b, "colocated", func() cluster.GatewayBalancer { return &cluster.PrefixAffinity{} })
}

func BenchmarkLongPrefillColocatedPredicted(b *testing.B) {
	forest := benchPredictor(b)
	benchLongPrefill(b, "colocated", func() cluster.GatewayBalancer {
		return &cluster.PredictedLatency{Predictor: forest}
	})
}

func BenchmarkLongPrefillDisaggLeastLoaded(b *testing.B) {
	benchLongPrefill(b, "disagg", func() cluster.GatewayBalancer { return cluster.LeastLoaded{} })
}

func BenchmarkLongPrefillDisaggPredicted(b *testing.B) {
	forest := benchPredictor(b)
	benchLongPrefill(b, "disagg", func() cluster.GatewayBalancer {
		return &cluster.PredictedLatency{Predictor: forest}
	})
}
