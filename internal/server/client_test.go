package server

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"
)

func testClient(t *testing.T) (*Client, *Server) {
	t.Helper()
	srv := newTestServer(t, qoserveSched())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, nil), srv
}

func TestClientGenerate(t *testing.T) {
	c, _ := testClient(t)
	var tokens []int
	done, err := c.Generate(context.Background(), GenerateRequest{
		Class: "Q1", PromptTokens: 400, DecodeTokens: 4,
	}, func(ev TokenEvent) { tokens = append(tokens, ev.Token) })
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 4 {
		t.Fatalf("streamed %d tokens, want 4", len(tokens))
	}
	if done.Event != "done" || done.TTFTMS <= 0 || done.TTLTMS < done.TTFTMS {
		t.Fatalf("done event = %+v", done)
	}
	if done.Violated {
		t.Error("lone request violated")
	}
}

func TestClientGenerateErrors(t *testing.T) {
	c, _ := testClient(t)
	if _, err := c.Generate(context.Background(), GenerateRequest{
		Class: "nope", PromptTokens: 10, DecodeTokens: 1,
	}, nil); err == nil {
		t.Error("unknown class accepted")
	}
	// Cancelled context aborts the stream.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Generate(ctx, GenerateRequest{
		Class: "Q1", PromptTokens: 400, DecodeTokens: 4,
	}, nil); err == nil {
		t.Error("cancelled context produced no error")
	}
}

func TestClientStatsAndClasses(t *testing.T) {
	c, _ := testClient(t)
	classes, err := c.FetchClasses(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) != 3 {
		t.Fatalf("classes = %v", classes)
	}
	names := make([]string, len(classes))
	for i, cl := range classes {
		names[i] = cl.Name
	}
	sort.Strings(names)
	if names[0] != "Q1" || names[2] != "Q3" {
		t.Fatalf("class names = %v", names)
	}

	stats, err := c.FetchStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accepted != 0 {
		t.Fatalf("fresh stats = %+v", stats)
	}
}

func TestClientDriveLoad(t *testing.T) {
	c, srv := testClient(t)
	reqs := []GenerateRequest{
		{Class: "Q1", PromptTokens: 300, DecodeTokens: 3},
		{Class: "Q2", PromptTokens: 600, DecodeTokens: 2},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := c.DriveLoad(ctx, reqs, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 12 || len(rep.TTFTs) != 12 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Wall <= 0 {
		t.Fatal("no wall time")
	}
	stats := srv.Stats()
	if stats.Accepted != 12 {
		t.Fatalf("server accepted %d", stats.Accepted)
	}

	if _, err := c.DriveLoad(ctx, nil, 1, 1); err == nil {
		t.Error("empty request list accepted")
	}
}
