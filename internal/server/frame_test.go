package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// newFrameServer is newTestServer with an explicit event-frame size (zero
// keeps the default).
func newFrameServer(t *testing.T, s sched.Scheduler, frame int) *Server {
	t.Helper()
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return s },
		Classes:          qos.Table3(),
		Timescale:        2000,
		EventFrame:       frame,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestFrameStreamsTokens is TestServerStreamsTokens with a tiny frame
// size that forces multi-frame streams: the Recv contract (every token
// observed or dropped-with-skips, final Done always last, frozen Result
// afterwards) must hold across frame boundaries.
func TestFrameStreamsTokens(t *testing.T) {
	srv := newFrameServer(t, qoserveSched(), 2)
	var stream Stream
	if err := srv.SubmitTo(Submission{Class: "Q1", PromptTokens: 500, DecodeTokens: 5}, &stream); err != nil {
		t.Fatal(err)
	}
	if res := stream.Result(); res != (Result{}) {
		t.Errorf("result before Done = %+v, want zero", res)
	}
	events := drain(t, &stream)
	last := events[len(events)-1]
	if !last.Done || last.Token != 5 {
		t.Fatalf("final event = %+v, want Done with token 5", last)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Token <= events[i-1].Token {
			t.Errorf("tokens not strictly increasing: %d after %d", events[i].Token, events[i-1].Token)
		}
		if events[i].At < events[i-1].At {
			t.Error("token times not monotone")
		}
	}
	res := stream.Result()
	if res.TTFT <= 0 || res.TTLT < res.TTFT {
		t.Errorf("result = %+v", res)
	}
	if res.Violated {
		t.Error("lone request violated its SLO")
	}
	// The stream is exhausted: further receives report ok=false.
	if _, ok := stream.Recv(); ok {
		t.Error("Recv after Done returned an event")
	}
}

// TestFrameConcurrentClients drives many concurrent batched streams and
// checks the ledger: every request completes, Drain returns promptly, and
// the accepted/pending counters and the metrics summary agree.
func TestFrameConcurrentClients(t *testing.T) {
	srv := newFrameServer(t, qoserveSched(), 4)
	const clients = 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		class := []string{"Q1", "Q2", "Q3"}[i%3]
		go func() {
			defer wg.Done()
			stream, err := srv.Submit(Submission{Class: class, PromptTokens: 300, DecodeTokens: 4})
			if err != nil {
				errs <- err
				return
			}
			evs := drain(t, stream)
			if last := evs[len(evs)-1]; !last.Done || last.Token != 4 {
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
	st := srv.Stats()
	if st.Accepted != clients || st.Pending != 0 || st.Tokens == 0 {
		t.Fatalf("stats = %+v", st)
	}
	sum := srv.summary(srv.vnow())
	if len(sum.Outcomes) != clients {
		t.Fatalf("summary holds %d outcomes, want %d", len(sum.Outcomes), clients)
	}
	for _, o := range sum.Outcomes {
		if !o.Completed {
			t.Fatalf("outcome %d not completed: %+v", o.ID, o)
		}
	}
}

// TestFrameFinalEventIdentity submits the same workload to a gateway
// delivering one event per frame and to one coalescing up to three, and
// checks that every stream's final event is identical under both frame
// sizes (token index and Done flag; timing is wall-clock-dependent and
// excluded): coalescing changes how events travel, never how a stream
// ends.
func TestFrameFinalEventIdentity(t *testing.T) {
	specs := []struct {
		class          string
		prompt, decode int
	}{
		{"Q1", 500, 5}, {"Q2", 900, 3}, {"Q3", 1400, 8},
		{"Q1", 200, 1}, {"Q2", 4000, 2}, {"Q3", 300, 6},
	}
	finals := func(frame int) []Event {
		srv, err := New(Config{
			Model:            model.Llama3_8B_A100_TP1(),
			SchedulerFactory: qoserveSched,
			Classes:          qos.Table3(),
			Timescale:        2000,
			EventFrame:       frame,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		out := make([]Event, len(specs))
		var wg sync.WaitGroup
		for i, sp := range specs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				stream, err := srv.Submit(Submission{Class: sp.class, PromptTokens: sp.prompt, DecodeTokens: sp.decode})
				if err != nil {
					t.Error(err)
					return
				}
				evs := drain(t, stream)
				out[i] = evs[len(evs)-1]
			}()
		}
		wg.Wait()
		return out
	}
	single, framed := finals(1), finals(3)
	for i := range specs {
		if !single[i].Done || !framed[i].Done {
			t.Fatalf("request %d missing Done: frame 1 %+v, frame 3 %+v", i, single[i], framed[i])
		}
		if single[i].Token != framed[i].Token {
			t.Errorf("request %d final token differs: frame 1 %d, frame 3 %d",
				i, single[i].Token, framed[i].Token)
		}
		if framed[i].Token != specs[i].decode {
			t.Errorf("request %d final token = %d, want %d", i, framed[i].Token, specs[i].decode)
		}
	}
}

// TestFrameConfigValidation covers the EventFrame knob and the derived
// frame-channel depth, max(2, StreamBuffer/EventFrame).
func TestFrameConfigValidation(t *testing.T) {
	base := Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return &untraceable{} },
		Classes:          qos.Table3(),
	}

	cfg := base
	cfg.EventFrame = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative EventFrame accepted")
	}
	for _, tc := range []struct {
		streamBuf, frame     int
		wantFrame, wantDepth int
	}{
		{0, 0, 16, 16}, // both defaults: 256/16
		{64, 4, 4, 16},
		{8, 0, 16, 2}, // floor of two frames
	} {
		cfg = base
		cfg.StreamBuffer, cfg.EventFrame = tc.streamBuf, tc.frame
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if srv.cfg.EventFrame != tc.wantFrame || srv.frameBuf != tc.wantDepth {
			t.Errorf("StreamBuffer %d, EventFrame %d: frame %d, depth %d; want %d, %d",
				tc.streamBuf, tc.frame, srv.cfg.EventFrame, srv.frameBuf, tc.wantFrame, tc.wantDepth)
		}
	}
}

// TestStreamTableShrink is the regression test for stream-table growth:
// after a burst of streamShrinkMin+ concurrent streams drains, the
// replica's table must be rebuilt at the survivors' size (Go maps never
// release buckets on delete), preserving the survivors and counting the
// rebuild; small or still-occupied tables must be left alone.
func TestStreamTableShrink(t *testing.T) {
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return &untraceable{} },
		Classes:          qos.Table3(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close() // stop the loop; the replica state stays usable
	rp := srv.reps[0]

	const burst = 2 * streamShrinkMin
	for i := uint64(1); i <= burst; i++ {
		rp.streams[i] = &streamEntry{id: i}
		if len(rp.streams) > rp.streamsPeak {
			rp.streamsPeak = len(rp.streams)
		}
	}
	// Drain to just above the shrink threshold: no rebuild yet.
	for i := uint64(burst/streamShrinkFactor + 2); i <= burst; i++ {
		delete(rp.streams, i)
	}
	rp.maybeShrinkStreams()
	if got := srv.streamShrinks.Load(); got != 0 {
		t.Fatalf("table shrank at %d/%d occupancy (shrinks=%d)", len(rp.streams), rp.streamsPeak, got)
	}
	// Drain below the threshold: one rebuild, survivors intact, peak reset.
	const survivors = 16
	for i := uint64(survivors + 1); i <= burst; i++ {
		delete(rp.streams, i)
	}
	rp.maybeShrinkStreams()
	if got := srv.streamShrinks.Load(); got != 1 {
		t.Fatalf("shrinks = %d, want 1", got)
	}
	if len(rp.streams) != survivors || rp.streamsPeak != survivors {
		t.Fatalf("after shrink: len=%d peak=%d, want %d", len(rp.streams), rp.streamsPeak, survivors)
	}
	for i := uint64(1); i <= survivors; i++ {
		if e := rp.streams[i]; e == nil || e.id != i {
			t.Fatalf("survivor %d lost in rebuild", i)
		}
	}
	// Idempotent: a second pass below streamShrinkMin never rebuilds again.
	rp.maybeShrinkStreams()
	if got := srv.streamShrinks.Load(); got != 1 {
		t.Fatalf("shrinks = %d after idempotent pass, want 1", got)
	}
}

// oneShot is a minimal allocation-free test scheduler: every added request
// runs its entire remaining prompt as one prefill chunk in the next batch.
// With DecodeTokens == 1 a request finishes in the same iteration it is
// admitted, which keeps the serving loop's steady state fully exercised
// (admit, plan, complete, finalize, frame flush) with no queue growth.
type oneShot struct {
	pending []sched.PrefillAlloc
	batch   []sched.PrefillAlloc
	n       int
}

func newOneShot() *oneShot {
	return &oneShot{
		pending: make([]sched.PrefillAlloc, 0, 64),
		batch:   make([]sched.PrefillAlloc, 0, 64),
	}
}

func (o *oneShot) Name() string { return "oneshot" }
func (o *oneShot) Add(r *request.Request, _ sim.Time) {
	o.pending = append(o.pending, sched.PrefillAlloc{Req: r, Tokens: r.PromptTokens - r.PrefilledTokens})
	o.n++
}
func (o *oneShot) PlanBatch(sim.Time) sched.Batch {
	o.batch, o.pending = o.pending, o.batch[:0]
	return sched.Batch{Prefill: o.batch}
}
func (o *oneShot) OnBatchComplete(b sched.Batch, _ sim.Time) { o.n -= len(b.Prefill) }
func (o *oneShot) Pending() int                              { return o.n }

// TestFrameSubmitRecvAllocFree extends the steady-state allocation guard
// across the whole token path: SubmitTo with a recycled Stream,
// admission, planning, completion, outcome freezing, frame delivery, and
// Recv must together allocate nothing once the pools are warm. The serving
// loop runs concurrently and testing.AllocsPerRun counts global mallocs,
// so this covers the loop goroutine too.
func TestFrameSubmitRecvAllocFree(t *testing.T) {
	srv, err := New(Config{
		Model:            model.Llama3_8B_A100_TP1(),
		SchedulerFactory: func() sched.Scheduler { return newOneShot() },
		Classes:          qos.Table3(),
		Timescale:        100000,
		EventFrame:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sub := Submission{Class: "Q1", PromptTokens: 16, DecodeTokens: 1}
	var stream Stream
	step := func() {
		if err := srv.SubmitTo(sub, &stream); err != nil {
			t.Fatal(err)
		}
		for {
			ev, ok := stream.Recv()
			if !ok {
				t.Fatal("stream ended without Done")
			}
			if ev.Done {
				return
			}
		}
	}
	// Warm the pools, the live table, and the loop's scratch.
	for i := 0; i < 64; i++ {
		step()
	}
	// The finished-outcome ledger grows forever by design; pre-grow it so
	// its (amortized, cold) append is not charged to the steady state.
	srv.finMu.Lock()
	if need := len(srv.doneOut) + 512; cap(srv.doneOut) < need {
		grown := make([]metrics.Outcome, len(srv.doneOut), need)
		copy(grown, srv.doneOut)
		srv.doneOut = grown
	}
	srv.finMu.Unlock()
	if allocs := testing.AllocsPerRun(300, step); allocs != 0 {
		t.Fatalf("submit+recv path allocates %.1f times per request, want 0", allocs)
	}
}
