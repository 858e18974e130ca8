package sched

import (
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// DecodeTier is the fixed decode-node policy of prefill-decode
// disaggregation (§4.1.3): requests arrive already past prefill (their KV
// shipped from the prefill tier) and decode in FCFS order, at most
// maxBatch per iteration so iteration time stays under the strictest TBT.
// The policy is identical for every prefill-tier scheme. Both substrates
// run it: the live gateway's decode replicas and the disagg pipeline's
// simulated decode nodes.
type DecodeTier struct {
	maxBatch int
	// queue holds every unfinished request in arrival order; each batch is
	// its first min(len, maxBatch) entries.
	queue []*request.Request
	TraceState
}

// NewDecodeTier returns a decode-tier scheduler whose batches hold at most
// maxBatch requests (at least one).
func NewDecodeTier(maxBatch int) *DecodeTier {
	return &DecodeTier{maxBatch: max(1, maxBatch)}
}

// Name identifies the policy in traces and /debug/queues.
//
//qoserve:hotpath
func (d *DecodeTier) Name() string { return "DecodeTier" }

// Add appends a request whose prompt is already prefilled.
func (d *DecodeTier) Add(r *request.Request, now sim.Time) {
	d.queue = append(d.queue, r)
	d.TraceAdmission(r.ID, r.Class.Name, now)
}

// PlanBatch returns the first min(Pending, maxBatch) requests in FCFS order
// as a decode-only batch. The batch aliases the queue and stays valid until
// OnBatchComplete.
//
//qoserve:hotpath
func (d *DecodeTier) PlanBatch(now sim.Time) Batch {
	b := Batch{Decodes: d.queue[:min(len(d.queue), d.maxBatch)]}
	if d.Tracing() {
		d.TracePlan(d.Name(), b, now, 0, 0, 0)
	}
	return b
}

// OnBatchComplete drops the requests that finished, keeping FCFS order.
//
//qoserve:hotpath
func (d *DecodeTier) OnBatchComplete(_ Batch, now sim.Time) {
	d.TraceComplete(now)
	live := d.queue[:0]
	for _, r := range d.queue {
		if r.Phase() != request.Done {
			live = append(live, r)
		}
	}
	clear(d.queue[len(live):])
	d.queue = live
}

// Pending is the number of unfinished requests.
func (d *DecodeTier) Pending() int { return len(d.queue) }

// QueueLen reports every request as a decode: the tier has no prefill or
// relegated queue.
func (d *DecodeTier) QueueLen() (main, relegated, decode int) { return 0, 0, len(d.queue) }
