package cluster

import (
	"fmt"
	"strings"

	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/predictor"
	"qoserve/internal/sched"
	"qoserve/internal/sim"
)

// Deployment resolves the policy and balancer names every entry point
// accepts into the objects they stand for. Policies and balancers that
// predict share the forest predictor.Trained memoizes for (Model, Seed).
type Deployment struct {
	Model model.Config
	Seed  int64 // predictor profiling and training seed
	// Chunk is the Sarathi policies' token budget; <= 0 means
	// sched.DefaultChunk.
	Chunk   int
	QoServe core.Options
	// PrefixMinMatch is the smallest cached-prefix match (tokens) the
	// prefix and predicted balancers act on; 0 means DefaultMinMatchTokens.
	PrefixMinMatch int
	// KVTransferBps, when positive, lets the predicted balancer price
	// importing a cached prefix over a link of this many bytes/s.
	KVTransferBps float64
}

// named is one row of a name table; forest marks rows that need the
// trained predictor.
type named[T any] struct {
	name   string
	forest bool
	build  func(d Deployment, f *predictor.Forest) T
}

var policies = []named[SchedulerFactory]{
	{"qoserve", true, func(d Deployment, f *predictor.Forest) SchedulerFactory {
		return func() sched.Scheduler { return core.New(f, d.QoServe) }
	}},
	{"sarathi-fcfs", false, sarathi(sched.FCFS)},
	{"sarathi-edf", false, sarathi(sched.EDF)},
	{"sarathi-sjf", false, sarathi(sched.SJF)},
	{"sarathi-srpf", false, sarathi(sched.SRPF)},
	{"vllm", false, func(Deployment, *predictor.Forest) SchedulerFactory {
		return func() sched.Scheduler { return sched.NewVLLM(0) }
	}},
	// Medha pins its chunk to Table 3's Q1 TBT, capped at 4096 tokens.
	{"medha", true, func(_ Deployment, f *predictor.Forest) SchedulerFactory {
		return func() sched.Scheduler { return sched.NewMedha(f, 50*sim.Millisecond, 4096) }
	}},
}

func sarathi(p sched.Policy) func(Deployment, *predictor.Forest) SchedulerFactory {
	return func(d Deployment, _ *predictor.Forest) SchedulerFactory {
		return func() sched.Scheduler { return sched.NewSarathi(p, d.Chunk) }
	}
}

var balancers = []named[GatewayBalancer]{
	{"round-robin", false, func(Deployment, *predictor.Forest) GatewayBalancer { return &AtomicRoundRobin{} }},
	{"least-loaded", false, func(Deployment, *predictor.Forest) GatewayBalancer { return LeastLoaded{} }},
	{"prefix", false, func(d Deployment, _ *predictor.Forest) GatewayBalancer {
		return &PrefixAffinity{MinMatchTokens: d.PrefixMinMatch}
	}},
	{"predicted", true, func(d Deployment, f *predictor.Forest) GatewayBalancer {
		pl := &PredictedLatency{Predictor: f}
		if d.KVTransferBps > 0 {
			pl.Transfer = &TransferModel{
				BytesPerToken: d.Model.Model.KVBytesPerToken(),
				BandwidthBps:  d.KVTransferBps,
				MinTokens:     d.PrefixMinMatch,
			}
		}
		return pl
	}},
}

// Scheduler builds the factory for a policy name (see PolicyNames).
func (d Deployment) Scheduler(policy string) (SchedulerFactory, error) {
	return build(d, "policy", policy, policies)
}

// Balancer builds the gateway balancer for a name (see BalancerNames).
func (d Deployment) Balancer(name string) (GatewayBalancer, error) {
	return build(d, "balancer", name, balancers)
}

// PolicyNames lists the policy names as "a | b | c", for flag help.
func PolicyNames() string { return names(policies) }

// BalancerNames lists the balancer names as "a | b | c", for flag help.
func BalancerNames() string { return names(balancers) }

func build[T any](d Deployment, kind, name string, table []named[T]) (T, error) {
	var zero T
	for _, row := range table {
		if row.name != name {
			continue
		}
		var f *predictor.Forest
		if row.forest {
			var err error
			if f, err = predictor.Trained(d.Model, d.Seed); err != nil {
				return zero, err
			}
		}
		return row.build(d, f), nil
	}
	return zero, fmt.Errorf("unknown %s %q (want %s)", kind, name, names(table))
}

func names[T any](table []named[T]) string {
	out := make([]string, len(table))
	for i, row := range table {
		out[i] = row.name
	}
	return strings.Join(out, " | ")
}
