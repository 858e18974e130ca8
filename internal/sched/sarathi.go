package sched

import (
	"fmt"

	"qoserve/internal/estimate"
	"qoserve/internal/request"
	"qoserve/internal/sim"
)

// Policy selects the prefill ordering of the Sarathi baseline scheduler.
type Policy int

// Baseline scheduling policies (§2.4).
const (
	// FCFS serves prefills in arrival order.
	FCFS Policy = iota
	// SJF serves the job with the shortest expected total work first
	// (prompt plus estimated decode length).
	SJF
	// SRPF serves the request with the fewest outstanding prompt tokens
	// first, re-evaluated as prefill progresses.
	SRPF
	// EDF serves the request with the earliest deadline first.
	EDF
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "FCFS"
	case SJF:
		return "SJF"
	case SRPF:
		return "SRPF"
	case EDF:
		return "EDF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// DefaultChunk is the fixed token budget the paper's shared-cluster
// baselines use, dictated by the strictest (50 ms) TBT tier.
const DefaultChunk = 256

// RelaxedChunk is the large budget the siloed baselines use for the
// latency-tolerant tiers.
const RelaxedChunk = 2048

// Sarathi is the Sarathi-Serve baseline: chunked prefill with a fixed
// per-iteration token budget, piggybacking all decodes on each batch, with
// a pluggable prefill-ordering policy.
type Sarathi struct {
	policy  Policy
	chunk   int
	name    string // cached: Name is called on every traced plan
	queue   Queue
	decodes []*request.Request
	est     *estimate.Tracker
	pending int
	// prefill is the reusable allocation scratch handed out as each
	// batch's Prefill slice; valid because at most one planned batch is
	// outstanding per scheduler (see the Scheduler contract).
	prefill []PrefillAlloc
	TraceState
}

// NewSarathi returns a Sarathi scheduler with the given ordering policy and
// per-iteration token budget (DefaultChunk if chunk <= 0).
func NewSarathi(policy Policy, chunk int) *Sarathi {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &Sarathi{policy: policy, chunk: chunk, name: "Sarathi-" + policy.String(), est: estimate.NewTracker()}
}

// Name identifies the scheduler in experiment output.
func (s *Sarathi) Name() string { return s.name }

// Chunk returns the fixed token budget.
func (s *Sarathi) Chunk() int { return s.chunk }

// key computes the ordering key of r under the configured policy.
func (s *Sarathi) key(r *request.Request) float64 {
	switch s.policy {
	case SJF:
		return float64(r.PromptTokens + r.EstDecodeTokens)
	case SRPF:
		return float64(r.RemainingPrefill())
	case EDF:
		return r.FirstTokenDeadline().Seconds()
	default: // FCFS
		return r.Arrival.Seconds()
	}
}

// Add enqueues a new arrival. A pre-set EstDecodeTokens is respected;
// otherwise the per-app history supplies it (SJF needs total-work
// estimates).
func (s *Sarathi) Add(r *request.Request, now sim.Time) {
	if r.EstDecodeTokens == 0 {
		r.EstDecodeTokens = s.est.Estimate(r.App)
	}
	s.pending++
	s.queue.Insert(r, s.key(r))
	s.TraceAdmission(r.ID, r.Class.Name, now)
}

// PlanBatch packs all decodes plus prefill chunks up to the fixed token
// budget, in policy order.
func (s *Sarathi) PlanBatch(now sim.Time) Batch {
	b := Batch{Decodes: s.decodes, Prefill: s.prefill[:0]}
	budget := s.chunk - len(s.decodes)
	for i := 0; i < s.queue.Len() && budget > 0; i++ {
		r := s.queue.At(i)
		take := r.RemainingPrefill()
		if take > budget {
			take = budget
		}
		b.Prefill = append(b.Prefill, PrefillAlloc{Req: r, Tokens: take})
		budget -= take
	}
	s.prefill = b.Prefill[:0]
	if s.Tracing() {
		s.TracePlan(s.Name(), b, now, 0, s.queue.Len(), 0)
	}
	return b
}

// OnBatchComplete re-files prefilled requests by their post-iteration phase.
func (s *Sarathi) OnBatchComplete(b Batch, now sim.Time) {
	s.TraceComplete(now)
	for _, p := range b.Prefill {
		s.queue.Remove(p.Req)
		switch p.Req.Phase() {
		case request.Prefill:
			s.queue.Insert(p.Req, s.key(p.Req)) // re-keys SRPF
		case request.Decode:
			s.decodes = append(s.decodes, p.Req)
		case request.Done: // single-token request finished at prefill
			s.finish(p.Req)
		}
	}
	live := s.decodes[:0]
	for _, r := range s.decodes {
		if r.Phase() == request.Done {
			s.finish(r)
		} else {
			live = append(live, r)
		}
	}
	s.decodes = live
}

func (s *Sarathi) finish(r *request.Request) {
	s.est.Observe(r.App, r.DecodeTokens)
	s.pending--
}

// Pending is the number of unfinished requests.
func (s *Sarathi) Pending() int { return s.pending }

// QueueLen reports (main, relegated, decode) queue sizes; Sarathi has no
// relegated queue.
func (s *Sarathi) QueueLen() (main, relegated, decode int) {
	return s.queue.Len(), 0, len(s.decodes)
}

// DecodeLen is the number of requests in decode phase.
func (s *Sarathi) DecodeLen() int { return len(s.decodes) }
