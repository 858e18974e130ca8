// Package loadgen generates deterministic open- and closed-loop load
// against the live serving gateway (internal/server) and reports sustained
// throughput and latency quantiles.
//
// The generator materializes the full request list up front from a seeded
// RNG — class mix, prompt/decode token counts, and (open-loop) arrival
// gaps — so a replayed run with the same Spec submits byte-identical work.
// Wall-clock throughput varies run to run, but completion counts, QoS
// violation tallies, and per-class breakdowns are deterministic at modest
// timescales, which is what the CI smoke job asserts.
//
// Closed-loop mode keeps Workers streams in flight: each worker owns every
// Workers'th request, submits it, drains the token stream, and moves on —
// classic concurrency-controlled load that measures sustained capacity.
// Open-loop mode submits on a Poisson process at Rate requests/second of
// wall time regardless of completions, the arrival model that exposes
// queueing collapse (see PAPERS.md on open vs closed loop pitfalls).
package loadgen

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"qoserve/internal/kvcache"
	"qoserve/internal/qos"
	"qoserve/internal/server"
	"qoserve/internal/workload"
)

// Mode selects the arrival discipline.
type Mode string

// Arrival disciplines.
const (
	// Closed keeps a fixed number of in-flight streams (Spec.Workers).
	Closed Mode = "closed"
	// Open submits on a Poisson process at Spec.Rate regardless of
	// completions.
	Open Mode = "open"
)

// Class is one traffic class in the generated mix.
type Class struct {
	// Name must match a QoS class configured on the target server.
	Name string
	// Weight is the relative share of requests (any positive scale).
	Weight float64
	// Priority of submitted requests.
	Priority qos.Priority
	// Prompt and Decode are the token-count distributions.
	Prompt workload.TokenDist
	Decode workload.TokenDist
}

// Spec configures one load-generation run.
type Spec struct {
	// Seed makes the generated request list deterministic.
	Seed int64
	// Mode is Closed (default) or Open.
	Mode Mode
	// Requests is the total number of requests to submit.
	Requests int
	// Workers is the closed-loop concurrency (default 8).
	Workers int
	// Rate is the open-loop arrival rate in requests per wall second.
	// In session mode it paces session starts, not individual turns.
	Rate float64
	// Classes is the traffic mix; at least one is required. Session mode
	// picks one class per session.
	Classes []Class

	// SessionTurns > 0 enables session mode: the Requests are grouped
	// into multi-turn conversations of that many turns. Each turn's
	// prompt is the accumulated context (previous prompt + previous
	// output + FollowUp new user tokens, front-anchored and clipped at
	// workload.DefaultMaxTokens), and every turn carries the session's
	// prefix hash chain, so a replica that served the previous turn
	// answers the next one mostly from its prefix cache. Turns of one
	// session always run sequentially — turn t+1 submits only after turn
	// t completed — while distinct sessions follow the arrival
	// discipline: closed mode keeps Workers sessions in flight, open
	// mode starts sessions on the Poisson process.
	SessionTurns int
	// FollowUp is the new-user-tokens distribution added per follow-up
	// turn; required in session mode.
	FollowUp workload.TokenDist
}

// Target is the submission surface the generator drives; *server.Server
// implements it.
type Target interface {
	Submit(server.Submission) (*server.Stream, error)
}

// ClassReport is the per-class slice of a Report.
type ClassReport struct {
	Name      string `json:"name"`
	Completed int    `json:"completed"`
	Violated  int    `json:"violated"`
}

// Report is the outcome of a run. Completed, Violated, Relegated, and
// PerClass are deterministic for a fixed Spec (same seed → same tallies);
// the wall-clock and throughput fields are not.
type Report struct {
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	// Errors counts submissions the server rejected.
	Errors    int           `json:"errors"`
	Violated  int           `json:"violated"`
	Relegated int           `json:"relegated"`
	PerClass  []ClassReport `json:"per_class"`
	// Tokens counts prompt+decode tokens of completed requests. (Overflow
	// event drops are a server-side counter — see Server.DroppedEvents —
	// not tracked here.)
	Tokens       int     `json:"tokens"`
	WallSeconds  float64 `json:"wall_seconds"`
	ReqPerSec    float64 `json:"req_per_sec"`
	TokensPerSec float64 `json:"tokens_per_sec"`
	// Latency quantiles are in virtual milliseconds.
	TTFTP50MS float64 `json:"ttft_p50_ms"`
	TTFTP90MS float64 `json:"ttft_p90_ms"`
	TTFTP99MS float64 `json:"ttft_p99_ms"`
	TBTP50MS  float64 `json:"tbt_p50_ms"`
	TBTP99MS  float64 `json:"tbt_p99_ms"`
	// Prefix accounting over this run (the delta of the target's KV
	// counters when it exposes them; see server.KVStats). Of the chain
	// tokens completed requests carried, PrefixHitTokens were served from
	// cache — PrefixTransferTokens of those by cross-replica KV import —
	// and PrefixRecomputeTokens were prefilled from scratch.
	PrefixHitTokens       uint64 `json:"prefix_hit_tokens"`
	PrefixTransferTokens  uint64 `json:"prefix_transfer_tokens"`
	PrefixRecomputeTokens uint64 `json:"prefix_recompute_tokens"`
}

// genReq is one pre-generated request.
type genReq struct {
	class    int // index into Spec.Classes
	prompt   int
	decode   int
	gap      time.Duration // open-loop inter-arrival gap before this request
	priority qos.Priority
	chain    []uint64 // session-mode prefix hash chain; nil otherwise
	session  int      // session index (session mode; 0 otherwise)
}

// outcome is one completed request's result.
type outcome struct {
	class    int
	tokens   int
	ttft     time.Duration
	maxTBT   time.Duration
	violated bool
	releg    bool
	ok       bool
}

// generate materializes the deterministic request list.
func generate(spec Spec) ([]genReq, error) {
	if spec.Requests <= 0 {
		return nil, fmt.Errorf("loadgen: requests must be positive, got %d", spec.Requests)
	}
	if len(spec.Classes) == 0 {
		return nil, fmt.Errorf("loadgen: no classes configured")
	}
	var totalW float64
	for _, c := range spec.Classes {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("loadgen: class %s: weight must be positive, got %v", c.Name, c.Weight)
		}
		if err := c.Prompt.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: class %s prompt: %w", c.Name, err)
		}
		if err := c.Decode.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: class %s decode: %w", c.Name, err)
		}
		totalW += c.Weight
	}
	if spec.Mode == Open && spec.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: open-loop mode needs a positive rate, got %v", spec.Rate)
	}
	if spec.SessionTurns < 0 {
		return nil, fmt.Errorf("loadgen: negative session turns %d", spec.SessionTurns)
	}
	if spec.SessionTurns > 0 {
		if err := spec.FollowUp.Validate(); err != nil {
			return nil, fmt.Errorf("loadgen: session follow-up: %w", err)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	pickClass := func() int {
		pick := rng.Float64() * totalW
		ci := 0
		for ; ci < len(spec.Classes)-1; ci++ {
			pick -= spec.Classes[ci].Weight
			if pick < 0 {
				break
			}
		}
		return ci
	}
	reqs := make([]genReq, spec.Requests)
	if spec.SessionTurns > 0 {
		// Session mode: consecutive reqs entries form one conversation.
		// The chain key is drawn per session, so all its turns share a
		// prefix and distinct sessions are disjoint; the per-turn chain
		// covers the shareable blocks of that turn's accumulated prompt.
		for i, sess := 0, 0; i < len(reqs); sess++ {
			ci := pickClass()
			c := spec.Classes[ci]
			key := rng.Uint64()
			prompt := c.Prompt.Sample(rng)
			var gap time.Duration
			if spec.Mode == Open {
				gap = time.Duration(rng.ExpFloat64() / spec.Rate * float64(time.Second))
			}
			for t := 0; t < spec.SessionTurns && i < len(reqs); t++ {
				if prompt > workload.DefaultMaxTokens {
					prompt = workload.DefaultMaxTokens
				}
				decode := c.Decode.Sample(rng)
				reqs[i] = genReq{
					class:    ci,
					prompt:   prompt,
					decode:   decode,
					priority: c.Priority,
					chain:    kvcache.SyntheticChain(key, 0, kvcache.ChainBlocks(prompt, kvcache.DefaultBlockTokens)),
					session:  sess,
				}
				if t == 0 {
					reqs[i].gap = gap
				}
				prompt += decode + spec.FollowUp.Sample(rng)
				i++
			}
		}
		return reqs, nil
	}
	for i := range reqs {
		ci := pickClass()
		c := spec.Classes[ci]
		reqs[i] = genReq{
			class:    ci,
			prompt:   c.Prompt.Sample(rng),
			decode:   c.Decode.Sample(rng),
			priority: c.Priority,
		}
		if spec.Mode == Open {
			reqs[i].gap = time.Duration(rng.ExpFloat64() / spec.Rate * float64(time.Second))
		}
	}
	return reqs, nil
}

// groupSessions partitions the request indices into units the arrival
// discipline schedules: one group per session in session mode (turns stay
// in order inside their group), one singleton per request otherwise.
func groupSessions(spec Spec, reqs []genReq) [][]int {
	if spec.SessionTurns <= 0 {
		groups := make([][]int, len(reqs))
		for i := range reqs {
			groups[i] = []int{i}
		}
		return groups
	}
	var groups [][]int
	for i := 0; i < len(reqs); {
		j := i + 1
		for j < len(reqs) && reqs[j].session == reqs[i].session {
			j++
		}
		idx := make([]int, 0, j-i)
		for k := i; k < j; k++ {
			idx = append(idx, k)
		}
		groups = append(groups, idx)
		i = j
	}
	return groups
}

// Run drives the target with the spec's load and blocks until every
// request has finished (or the context is cancelled, which abandons
// requests not yet submitted but still drains in-flight streams).
func Run(ctx context.Context, target Target, spec Spec) (Report, error) {
	reqs, err := generate(spec)
	if err != nil {
		return Report{}, err
	}
	if spec.Mode == "" {
		spec.Mode = Closed
	}
	outcomes := make([]outcome, len(reqs))
	groups := groupSessions(spec, reqs)
	kvTarget, _ := target.(interface{ KVStats() server.KVStats })
	var kvBefore server.KVStats
	if kvTarget != nil {
		kvBefore = kvTarget.KVStats()
	}
	start := time.Now()
	switch spec.Mode {
	case Closed:
		workers := spec.Workers
		if workers <= 0 {
			workers = 8
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for g := w; g < len(groups); g += workers {
					for _, i := range groups[g] {
						if ctx.Err() != nil {
							return
						}
						outcomes[i] = execute(target, spec, reqs[i])
					}
				}
			}(w)
		}
		wg.Wait()
	case Open:
		var wg sync.WaitGroup
		next := start
	pace:
		for _, g := range groups {
			next = next.Add(reqs[g[0]].gap)
			if d := time.Until(next); d > 0 {
				select {
				case <-ctx.Done():
					break pace
				case <-time.After(d):
				}
			}
			if ctx.Err() != nil {
				break
			}
			wg.Add(1)
			go func(g []int) {
				defer wg.Done()
				for _, i := range g {
					if ctx.Err() != nil {
						return
					}
					outcomes[i] = execute(target, spec, reqs[i])
				}
			}(g)
		}
		wg.Wait()
	default:
		return Report{}, fmt.Errorf("loadgen: unknown mode %q", spec.Mode)
	}
	rep := report(spec, outcomes, time.Since(start))
	if kvTarget != nil {
		after := kvTarget.KVStats()
		rep.PrefixHitTokens = after.PrefixHitTokens - kvBefore.PrefixHitTokens
		rep.PrefixTransferTokens = after.PrefixTransferTokens - kvBefore.PrefixTransferTokens
	}
	// Chain tokens the completed requests carried but the cache did not
	// cover were prefilled from scratch.
	var potential uint64
	for i, o := range outcomes {
		if o.ok {
			potential += uint64(len(reqs[i].chain) * kvcache.DefaultBlockTokens)
		}
	}
	if potential > rep.PrefixHitTokens {
		rep.PrefixRecomputeTokens = potential - rep.PrefixHitTokens
	}
	return rep, nil
}

// execute submits one request and drains its stream to completion.
func execute(target Target, spec Spec, g genReq) outcome {
	c := spec.Classes[g.class]
	stream, err := target.Submit(server.Submission{
		App:          c.Name,
		Class:        c.Name,
		Priority:     g.priority,
		PromptTokens: g.prompt,
		DecodeTokens: g.decode,
		PrefixHashes: g.chain,
	})
	if err != nil {
		return outcome{class: g.class}
	}
	// Drain to completion via Recv; overflow drops mean fewer events here,
	// never a stall.
	for {
		if _, ok := stream.Recv(); !ok {
			break
		}
	}
	res := stream.Result()
	return outcome{
		class:    g.class,
		tokens:   g.prompt + g.decode,
		ttft:     res.TTFT,
		maxTBT:   res.MaxTBT,
		violated: res.Violated,
		releg:    res.Releg,
		ok:       true,
	}
}

// report aggregates outcomes.
func report(spec Spec, outcomes []outcome, wall time.Duration) Report {
	rep := Report{Requests: len(outcomes), PerClass: make([]ClassReport, len(spec.Classes))}
	for i, c := range spec.Classes {
		rep.PerClass[i].Name = c.Name
	}
	var ttfts, tbts []float64
	for _, o := range outcomes {
		if !o.ok {
			rep.Errors++
			continue
		}
		rep.Completed++
		rep.Tokens += o.tokens
		pc := &rep.PerClass[o.class]
		pc.Completed++
		if o.violated {
			rep.Violated++
			pc.Violated++
		}
		if o.releg {
			rep.Relegated++
		}
		ttfts = append(ttfts, float64(o.ttft)/float64(time.Millisecond))
		if o.maxTBT > 0 {
			tbts = append(tbts, float64(o.maxTBT)/float64(time.Millisecond))
		}
	}
	rep.WallSeconds = wall.Seconds()
	if rep.WallSeconds > 0 {
		rep.ReqPerSec = float64(rep.Completed) / rep.WallSeconds
		rep.TokensPerSec = float64(rep.Tokens) / rep.WallSeconds
	}
	rep.TTFTP50MS = quantile(ttfts, 0.5)
	rep.TTFTP90MS = quantile(ttfts, 0.9)
	rep.TTFTP99MS = quantile(ttfts, 0.99)
	rep.TBTP50MS = quantile(tbts, 0.5)
	rep.TBTP99MS = quantile(tbts, 0.99)
	return rep
}

// quantile is the nearest-rank q-quantile of vs; zero when vs is empty.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
