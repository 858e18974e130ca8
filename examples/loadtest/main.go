// Loadtest: drive the real-time serving engine (the same one behind
// cmd/qoserved) with concurrent clients at 200x accelerated time and watch
// QoS differentiation live: interactive requests stream first tokens in
// sub-second virtual time while batch jobs absorb the remaining capacity.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/server"
)

func main() {
	mc := model.Llama3_8B_A100_TP1()
	srv, err := server.New(server.Config{
		Model: mc,
		SchedulerFactory: func() sched.Scheduler {
			return core.New(predictor.Oracle{Config: mc}, core.DefaultOptions())
		},
		Classes:   qos.Table3(),
		Timescale: 200, // 1 wall millisecond = 200 virtual milliseconds
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	type result struct {
		class    string
		ttft     time.Duration
		ttlt     time.Duration
		violated bool
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		results []result
	)
	rng := rand.New(rand.NewSource(7))

	// 60 clients: a third interactive chat, two thirds batch jobs.
	for i := 0; i < 60; i++ {
		class := []string{"Q1", "Q2", "Q3"}[i%3]
		prompt := 500 + rng.Intn(3000)
		decode := 3 + rng.Intn(12)
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream, err := srv.Submit(server.Submission{
				Class: class, PromptTokens: prompt, DecodeTokens: decode,
			})
			if err != nil {
				log.Fatal(err)
			}
			for { // consume the token stream
				if _, ok := stream.Recv(); !ok {
					break
				}
			}
			res := stream.Result()
			mu.Lock()
			results = append(results, result{class, res.TTFT, res.TTLT, res.Violated})
			mu.Unlock()
		}()
		time.Sleep(time.Millisecond) // ~5 virtual requests/second
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}

	agg := map[string]struct {
		n, violated int
		worstTTFT   time.Duration
	}{}
	for _, r := range results {
		a := agg[r.class]
		a.n++
		if r.violated {
			a.violated++
		}
		if r.ttft > a.worstTTFT {
			a.worstTTFT = r.ttft
		}
		agg[r.class] = a
	}
	fmt.Println("class  requests  violated  worst TTFT (virtual)")
	for _, class := range []string{"Q1", "Q2", "Q3"} {
		a := agg[class]
		fmt.Printf("%-7s%9d%10d%22v\n", class, a.n, a.violated, a.worstTTFT.Round(time.Millisecond))
	}
	stats := srv.Stats()
	fmt.Printf("\nserver: %d iterations, %d tokens, %.2f%% violations over %v virtual time\n",
		stats.Iterations, stats.Tokens, 100*stats.ViolationRate,
		stats.VirtualNow.Round(time.Second))
}
