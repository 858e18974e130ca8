package server

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
)

// newDisaggServer builds a two-tier gateway. Timescale 500 keeps
// iteration sleeps above the scheduler-jitter floor while finishing fast.
func newDisaggServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Model.Model.Name == "" {
		cfg.Model = model.Llama3_8B_A100_TP1()
	}
	cfg.Mode = "disagg"
	if cfg.Classes == nil {
		cfg.Classes = qos.Table3()
	}
	if cfg.Timescale == 0 {
		cfg.Timescale = 500
	}
	if cfg.SchedulerFactory == nil {
		cfg.SchedulerFactory = func() sched.Scheduler { return sched.NewSarathi(sched.EDF, 512) }
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

func TestDisaggConfigValidation(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	factory := func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) }
	base := Config{Model: mc, SchedulerFactory: factory, Classes: qos.Table3()}

	bad := []func(*Config){
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 1 },
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 4; c.PrefillReplicas = 4 },
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 4; c.PrefillReplicas = -1 },
		func(c *Config) { c.Mode = "colocated"; c.Replicas = 4; c.PrefillReplicas = 2 },
		func(c *Config) { c.Mode = "spatial"; c.Replicas = 4 },
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 4; c.TransferBandwidth = -1 },
		func(c *Config) { c.Mode = "disagg"; c.Replicas = 4; c.StrictestTBT = -time.Millisecond },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config accepted, want error", i)
		}
	}

	cfg := base
	cfg.Mode = "disagg"
	cfg.Replicas = 5
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.prefillReps != 3 {
		t.Fatalf("default prefill tier %d, want 3 of 5", srv.prefillReps)
	}
	if srv.cfg.MaxDecodeBatch < 1 {
		t.Fatalf("derived decode batch %d", srv.cfg.MaxDecodeBatch)
	}
}

// TestDisaggCompletesAllRequests drives a 2+2 gateway end to end: every
// request must stream its full output through the prefill -> transfer ->
// decode pipeline, and the handoff counters must account every prompt.
func TestDisaggCompletesAllRequests(t *testing.T) {
	srv := newDisaggServer(t, Config{Replicas: 4, PrefillReplicas: 2})
	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		class := []string{"Q1", "Q2", "Q3"}[i%3]
		go func() {
			defer wg.Done()
			stream, err := srv.Submit(Submission{Class: class, PromptTokens: 400, DecodeTokens: 6})
			if err != nil {
				errs <- err
				return
			}
			evs := drain(t, stream)
			if last := evs[len(evs)-1]; !last.Done || last.Token != 6 {
				errs <- context.DeadlineExceeded
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := srv.handoffs.Load(); got != n {
		t.Errorf("handoffs = %d, want %d", got, n)
	}
	if got := srv.transferTokens.Load(); got != n*400 {
		t.Errorf("transfer tokens = %d, want %d", got, n*400)
	}
	// Prompt tokens are counted once, on the prefill tier; output tokens on
	// the decode tier (the first token of each request rides the prefill).
	if got := srv.prefillTokens.Load(); got != n*400 {
		t.Errorf("prefill tokens = %d, want %d", got, n*400)
	}
	if got := srv.decodeTokens.Load(); got != n*(6-1) {
		t.Errorf("decode tokens = %d, want %d", got, n*5)
	}

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	for _, want := range []string{
		"qoserve_disagg_handoffs_total 12",
		"qoserve_disagg_transfer_tokens_total 4800",
		`qoserve_disagg_tier_replicas{tier="prefill"} 2`,
		`qoserve_disagg_tier_replicas{tier="decode"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDisaggDecodeTierRunsServingLoop: decode replicas run the ordinary
// serving loop under sched.DecodeTier, so every decode iteration is traced
// and queued like any other replica's, and SchedulerFactory builds only the
// prefill tier.
func TestDisaggDecodeTierRunsServingLoop(t *testing.T) {
	var built atomic.Int32
	srv := newDisaggServer(t, Config{
		Replicas:        3,
		PrefillReplicas: 1,
		TraceDepth:      1024,
		SchedulerFactory: func() sched.Scheduler {
			built.Add(1)
			return sched.NewSarathi(sched.EDF, 512)
		},
	})
	if got := int(built.Load()); got != srv.PrefillReplicas() {
		t.Fatalf("SchedulerFactory ran %d times, want %d (prefill tier only)", got, srv.PrefillReplicas())
	}
	const decode = 40
	stream, err := srv.Submit(Submission{Class: "Q2", PromptTokens: 512, DecodeTokens: decode})
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(t, stream)
	if last := evs[len(evs)-1]; !last.Done || last.Token != decode {
		t.Fatalf("stream ended with %+v, want Done at token %d", last, decode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// The first token rides the handoff; each of the other 39 is one
	// decode-only iteration on the decode tier.
	policy := sched.NewDecodeTier(1).Name()
	iters := 0
	for _, it := range srv.Trace().Snapshot(0) {
		if it.Policy == policy && it.Batch.PrefillTokens == 0 && it.Batch.Decodes == 1 {
			iters++
		}
	}
	if iters < decode-1 {
		t.Fatalf("trace holds %d %s decode iterations, want >= %d", iters, policy, decode-1)
	}
	if q := srv.Queues(); q != (QueueDepths{Reported: true}) {
		t.Fatalf("queues %+v after drain, want empty", q)
	}
}

// TestDisaggPrefillTierPreemptsLongPrompt is the decoupled-granularity
// property: because the prefill tier runs the chunked EDF scheduler, a
// tight-deadline short prompt submitted behind a huge one overtakes it
// mid-prefill and finishes its whole pipeline before the huge prompt even
// produces a first token.
func TestDisaggPrefillTierPreemptsLongPrompt(t *testing.T) {
	srv := newDisaggServer(t, Config{Replicas: 2, PrefillReplicas: 1})
	giant, err := srv.Submit(Submission{Class: "Q3", PromptTokens: 8192, DecodeTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let the giant start prefilling
	short, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 256, DecodeTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, short)
	drain(t, giant)
	sres, gres := short.Result(), giant.Result()
	if sres.TTLT >= gres.TTFT {
		t.Fatalf("short request did not overtake the giant prefill: short TTLT %v, giant TTFT %v", sres.TTLT, gres.TTFT)
	}
}

// TestDebugLoadEndpoint checks /debug/load exposes per-replica roles,
// liveness, and wire-form snapshots.
func TestDebugLoadEndpoint(t *testing.T) {
	srv := newDisaggServer(t, Config{Replicas: 3, PrefillReplicas: 2})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/load", nil))
	body, _ := io.ReadAll(rec.Result().Body)
	for _, want := range []string{`"mode":"disagg"`, `"role":"prefill"`, `"role":"decode"`, `"snapshot":"v1:`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/debug/load missing %q in %s", want, body)
		}
	}
}
