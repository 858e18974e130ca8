package sched

import (
	"testing"

	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// handoff builds a request whose prompt is already prefilled (first token
// emitted), as it arrives at a decode-tier node.
func handoff(id uint64, decode int) *request.Request {
	r := req(id, 0, 100, decode, interactiveClass())
	r.RecordPrefill(r.PromptTokens, 0)
	return r
}

func decodeIDs(b Batch) []uint64 {
	ids := make([]uint64, len(b.Decodes))
	for i, r := range b.Decodes {
		ids[i] = r.ID
	}
	return ids
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runDecodeIteration plans, records one token per batched request, and
// completes the batch. It returns the batch's request count; the batch
// itself is only valid until OnBatchComplete.
func runDecodeIteration(d *DecodeTier, now sim.Time) int {
	b := d.PlanBatch(now)
	for _, r := range b.Decodes {
		if r.Phase() != request.Decode {
			panic("decode tier batched a request outside decode phase")
		}
		r.RecordDecodeToken(now)
	}
	d.OnBatchComplete(b, now)
	return len(b.Decodes)
}

// TestDecodeTierFCFSCapped pins the decode-tier policy: batches are the
// first min(Pending, cap) requests in arrival order, decode-only, and
// finished requests leave without disturbing the order of the rest.
func TestDecodeTierFCFSCapped(t *testing.T) {
	d := NewDecodeTier(2)
	if d.Pending() != 0 || !d.PlanBatch(0).Empty() {
		t.Fatal("empty tier planned work")
	}
	// Decode lengths: request 1 finishes after one decode iteration, the
	// others later.
	for id, n := range []int{2, 4, 4, 4} {
		d.Add(handoff(uint64(id+1), n), 0)
	}
	if d.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", d.Pending())
	}
	if main, releg, dec := d.QueueLen(); main != 0 || releg != 0 || dec != 4 {
		t.Fatalf("QueueLen = (%d,%d,%d), want (0,0,4)", main, releg, dec)
	}

	b := d.PlanBatch(sim.Millisecond)
	if got := decodeIDs(b); !sameIDs(got, []uint64{1, 2}) {
		t.Fatalf("first batch %v, want [1 2]", got)
	}
	if len(b.Prefill) != 0 {
		t.Fatalf("decode tier planned prefill %v", b.Prefill)
	}
	for _, r := range b.Decodes {
		r.RecordDecodeToken(sim.Millisecond)
	}
	d.OnBatchComplete(b, sim.Millisecond)
	// Request 1 finished: it leaves, and 3 moves up into the capped batch.
	if d.Pending() != 3 {
		t.Fatalf("Pending = %d after one finish, want 3", d.Pending())
	}
	if got := decodeIDs(d.PlanBatch(2 * sim.Millisecond)); !sameIDs(got, []uint64{2, 3}) {
		t.Fatalf("second batch %v, want [2 3]", got)
	}
	d.OnBatchComplete(Batch{}, 2*sim.Millisecond) // nothing ran

	// A late arrival queues behind everyone already waiting: requests
	// first enter a batch in arrival order.
	d.Add(handoff(5, 2), 2*sim.Millisecond)
	var entered []uint64
	seen := map[uint64]bool{1: true}
	for i := 0; d.Pending() > 0; i++ {
		if i > 20 {
			t.Fatalf("tier did not drain: Pending %d", d.Pending())
		}
		for _, id := range decodeIDs(d.PlanBatch(0)) {
			if !seen[id] {
				seen[id] = true
				entered = append(entered, id)
			}
		}
		if n := runDecodeIteration(d, sim.Time(3+i)*sim.Millisecond); n == 0 || n > 2 {
			t.Fatalf("batch of %d with pending work, cap 2", n)
		}
	}
	if !sameIDs(entered, []uint64{2, 3, 4, 5}) {
		t.Fatalf("requests entered batches in order %v, want [2 3 4 5]", entered)
	}
	if _, _, dec := d.QueueLen(); dec != 0 {
		t.Fatalf("drained tier reports %d decodes", dec)
	}
}

// TestDecodeTierCapFloor clamps a non-positive cap to one request.
func TestDecodeTierCapFloor(t *testing.T) {
	d := NewDecodeTier(0)
	d.Add(handoff(1, 3), 0)
	d.Add(handoff(2, 3), 0)
	if got := decodeIDs(d.PlanBatch(0)); !sameIDs(got, []uint64{1}) {
		t.Fatalf("batch %v, want [1]", got)
	}
}

// TestDecodeTierSteadyStateAllocFree: once the queue has grown to its
// working size, planning and completing iterations allocates nothing.
func TestDecodeTierSteadyStateAllocFree(t *testing.T) {
	d := NewDecodeTier(8)
	reqs := make([]*request.Request, 16)
	for i := range reqs {
		reqs[i] = handoff(uint64(i+1), 1<<30)
		d.Add(reqs[i], 0)
	}
	now := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		now += sim.Millisecond
		runDecodeIteration(d, now)
	})
	if allocs != 0 {
		t.Fatalf("decode tier allocated %.1f times per iteration, want 0", allocs)
	}
}
