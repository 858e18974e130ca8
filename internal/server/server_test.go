package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
)

// newTestServer runs at 2000x so simulated seconds pass in milliseconds.
func newTestServer(t *testing.T, s sched.Scheduler) *Server {
	t.Helper()
	return newFrameServer(t, s, 0)
}

// drain receives st to exhaustion and returns the events it delivered, in
// order; the last one is always the Done event.
func drain(tb testing.TB, st *Stream) []Event {
	tb.Helper()
	var evs []Event
	for {
		ev, ok := st.Recv()
		if !ok {
			return evs
		}
		evs = append(evs, ev)
	}
}

// serveOne submits a request and waits for its stream to finish.
func serveOne(t *testing.T, srv *Server, sub Submission) {
	t.Helper()
	stream, err := srv.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, stream)
}

func qoserveSched() sched.Scheduler {
	mc := model.Llama3_8B_A100_TP1()
	return core.New(predictor.Oracle{Config: mc}, core.DefaultOptions())
}

func TestServerStreamsTokens(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	stream, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 500, DecodeTokens: 5})
	if err != nil {
		t.Fatal(err)
	}
	events := drain(t, stream)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i, ev := range events {
		if ev.Token != i+1 {
			t.Errorf("event %d token = %d", i, ev.Token)
		}
		if i > 0 && ev.At < events[i-1].At {
			t.Error("token times not monotone")
		}
	}
	if !events[4].Done {
		t.Error("last event not marked done")
	}
	res := stream.Result()
	if res.TTFT <= 0 || res.TTLT < res.TTFT {
		t.Errorf("result = %+v", res)
	}
	if res.Violated {
		t.Error("lone request violated its SLO")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
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
			if n := len(drain(t, stream)); n != 4 {
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
}

func TestServerValidation(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	cases := []Submission{
		{Class: "nope", PromptTokens: 10, DecodeTokens: 1},
		{Class: "Q1", PromptTokens: 0, DecodeTokens: 1},
		{Class: "Q1", PromptTokens: 10, DecodeTokens: 0},
		{Class: "Q1", PromptTokens: 10, DecodeTokens: 1 << 20},
	}
	for i, sub := range cases {
		if _, err := srv.Submit(sub); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}

	mc := model.Llama3_8B_A100_TP1()
	if _, err := New(Config{Model: mc, Classes: qos.Table3()}); err == nil {
		t.Error("nil scheduler factory accepted")
	}
	if _, err := New(Config{Model: mc, SchedulerFactory: func() sched.Scheduler { return nil },
		Classes: qos.Table3()}); err == nil {
		t.Error("factory returning a nil scheduler accepted")
	}
	if _, err := New(Config{Model: mc, SchedulerFactory: qoserveSched}); err == nil {
		t.Error("no classes accepted")
	}
	if _, err := New(Config{Model: mc, SchedulerFactory: qoserveSched,
		Classes: qos.Table3(), Timescale: -1}); err == nil {
		t.Error("negative timescale accepted")
	}
}

func TestServerCloseRejectsSubmissions(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	srv.Close()
	if _, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 10, DecodeTokens: 1}); err == nil {
		t.Error("submission accepted after close")
	}
	srv.Close() // double close is safe
}

func TestHTTPGenerateStream(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(GenerateRequest{
		Class: "Q1", PromptTokens: 400, DecodeTokens: 3,
	})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var events []TokenEvent
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var ev TokenEvent
		if err := json.Unmarshal(scanner.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", scanner.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	last := events[len(events)-1]
	if last.Event != "done" || last.TTLTMS <= 0 || last.TTFTMS <= 0 {
		t.Fatalf("final event = %+v", last)
	}
}

func TestHTTPStatsAndClasses(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Accepted != 0 || stats.Pending != 0 {
		t.Fatalf("fresh stats = %+v", stats)
	}

	resp, err = http.Get(ts.URL + "/v1/classes")
	if err != nil {
		t.Fatal(err)
	}
	var classes []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&classes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(classes) != 3 {
		t.Fatalf("classes = %v", classes)
	}
}

func TestHTTPGenerateRejectsBadInput(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, payload := range []string{
		`{not json`,
		`{"class":"nope","prompt_tokens":10,"decode_tokens":1}`,
		`{"class":"Q1","prompt_tokens":10,"decode_tokens":1,"priority":"vip"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json",
			bytes.NewReader([]byte(payload)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("payload %q: status %d, want 400", payload, resp.StatusCode)
		}
	}
}

// TestServerQoSOrdering checks the scheduler actually shapes real-time
// traffic: with a long batch job hogging the replica, an interactive
// request's first token must still arrive promptly under QoServe.
func TestServerQoSOrdering(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	// A huge batch-tier prompt arrives first.
	batch, err := srv.Submit(Submission{Class: "Q3", PromptTokens: 12000, DecodeTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let its prefill start
	urgent, err := srv.Submit(Submission{Class: "Q1", PromptTokens: 200, DecodeTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, urgent)
	drain(t, batch)
	if res := urgent.Result(); res.Violated {
		t.Errorf("urgent request violated its TTFT behind a batch job: %+v", res)
	}
}

func TestServerWithSarathiScheduler(t *testing.T) {
	srv := newTestServer(t, sched.NewSarathi(sched.EDF, 256))
	stream, err := srv.Submit(Submission{Class: "Q2", PromptTokens: 600, DecodeTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drain(t, stream)); n != 3 {
		t.Fatalf("got %d events", n)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Serve one request so counters move.
	serveOne(t, srv, Submission{Class: "Q1", PromptTokens: 200, DecodeTokens: 2})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"qoserve_requests_total 1",
		"qoserve_tokens_total",
		"qoserve_violation_ratio",
		"# TYPE qoserve_iterations_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestCountersNeverShowMorePendingThanAccepted races submitters against a
// counter reader: a submission must never be visible as pending before it
// is counted accepted, and the accepted counter (qoserve_requests_total)
// must never decrease. Requests are long enough that none finishes during
// the test, so a single submission caught between the two counter updates
// shows up as pending > accepted.
func TestCountersNeverShowMorePendingThanAccepted(t *testing.T) {
	for _, mode := range []string{"colocated", "disagg"} {
		t.Run(mode, func(t *testing.T) {
			srv, err := New(Config{
				Model:            model.Llama3_8B_A100_TP1(),
				SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
				Replicas:         4,
				Mode:             mode,
				Classes:          qos.Table3(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			const submitters, perSubmitter = 4, 2000
			var wg sync.WaitGroup
			for w := 0; w < submitters; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var st Stream
					for i := 0; i < perSubmitter; i++ {
						if err := srv.SubmitTo(Submission{Class: "Q3", PromptTokens: 64, DecodeTokens: 4096}, &st); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			violation := ""
			var last uint64
		read:
			for reads := 0; ; reads++ {
				pending, accepted := srv.counts()
				switch {
				case pending > int(accepted):
					violation = fmt.Sprintf("read %d: pending %d > accepted %d", reads, pending, accepted)
					break read
				case accepted < last:
					violation = fmt.Sprintf("read %d: accepted fell from %d to %d", reads, last, accepted)
					break read
				}
				last = accepted
				select {
				case <-done:
					break read
				default:
				}
			}
			<-done // the submitters finish before Close
			if violation != "" {
				t.Fatal(violation)
			}
			if _, accepted := srv.counts(); accepted != submitters*perSubmitter {
				t.Fatalf("accepted %d, want %d", accepted, submitters*perSubmitter)
			}
		})
	}
}

// TestDoneImpliesRetired pins the linearization point of a request's
// outcome: by the time a client has received Done, the request is retired
// everywhere the gateway reports it — no longer pending in Stats, no
// longer queued in any scheduler. Sequential submit/drain cycles give the
// serving loop no other work to hide the race behind, so a loop that
// sends the final frame before releasing its counters is caught within a
// few thousand requests, colocated and disaggregated alike.
func TestDoneImpliesRetired(t *testing.T) {
	for _, mode := range []string{"colocated", "disagg"} {
		t.Run(mode, func(t *testing.T) {
			srv, err := New(Config{
				Model:            model.Llama3_8B_A100_TP1(),
				SchedulerFactory: func() sched.Scheduler { return sched.NewSarathi(sched.FCFS, 512) },
				Replicas:         2,
				Mode:             mode,
				Classes:          qos.Table3(),
				Timescale:        100000,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			var stream Stream
			for i := 0; i < 3000; i++ {
				if err := srv.SubmitTo(Submission{Class: "Q1", PromptTokens: 64, DecodeTokens: 2}, &stream); err != nil {
					t.Fatal(err)
				}
				drain(t, &stream)
				if st := srv.Stats(); st.Pending != 0 {
					t.Fatalf("request %d: Pending = %d after Done", i, st.Pending)
				}
				if q := srv.Queues(); q.Main != 0 || q.Relegated != 0 || q.Decode != 0 {
					t.Fatalf("request %d: queues %+v after Done", i, q)
				}
			}
		})
	}
}
