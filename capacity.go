package qoserve

import (
	"fmt"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/request"
)

// CapacityOptions tunes the capacity-planning searches.
type CapacityOptions struct {
	// MaxViolations is the admissible violation fraction (default 1%,
	// the paper's goodput criterion).
	MaxViolations float64
	// ProbeDuration is each probe trace's length (default 10 minutes).
	ProbeDuration time.Duration
	// Seed makes probes deterministic.
	Seed int64
}

func (o CapacityOptions) search() cluster.SearchOptions {
	maxViol := o.MaxViolations
	if maxViol == 0 {
		maxViol = 0.01
	}
	return cluster.SearchOptions{
		MaxViolations: maxViol,
		Tolerance:     0.05,
		HorizonFor:    cluster.Horizon,
	}
}

func (o CapacityOptions) duration() time.Duration {
	if o.ProbeDuration <= 0 {
		return 10 * time.Minute
	}
	return o.ProbeDuration
}

// probeGen builds the capacity search's trace generator from a workload
// specification, overriding its rate per probe.
func probeGen(serve Options, spec WorkloadSpec, dur time.Duration, seed int64) cluster.TraceGen {
	if len(spec.Classes) == 0 {
		spec.Classes = serve.Classes
	}
	return func(qps float64) ([]*request.Request, error) {
		s := spec
		s.QPS = qps
		s.Duration = dur
		s.Seed = seed
		s.BurstQPS = 0 // capacity probes use steady load
		reqs, err := GenerateWorkload(s)
		if err != nil {
			return nil, err
		}
		_, classMap, err := serve.classes()
		if err != nil {
			return nil, err
		}
		trace := make([]*request.Request, len(reqs))
		for i, r := range reqs {
			ir, err := r.toInternal(r.ID, classMap)
			if err != nil {
				return nil, err
			}
			trace[i] = ir
		}
		return trace, nil
	}
}

// FindMaxGoodput searches for the highest per-replica arrival rate (QPS)
// the configured deployment sustains within the violation target — the
// paper's goodput metric, exposed for capacity planning. The workload
// specification's QPS and Duration are ignored (probes set their own).
func FindMaxGoodput(serve Options, spec WorkloadSpec, opts CapacityOptions) (float64, error) {
	if len(serve.Silos) > 0 {
		return 0, fmt.Errorf("qoserve: goodput search applies to shared deployments")
	}
	mc := serve.Hardware.config()
	factory, err := serve.factory(mc)
	if err != nil {
		return 0, err
	}
	gen := probeGen(serve, spec, opts.duration(), opts.Seed)
	qps, _, err := cluster.MaxGoodput(mc, factory, gen, opts.search())
	return qps, err
}

// FindMinReplicas searches for the smallest shared-cluster size that serves
// the workload specification's rate within the violation target — the
// paper's Table 4 provisioning question. maxReplicas bounds the search.
func FindMinReplicas(serve Options, spec WorkloadSpec, maxReplicas int, opts CapacityOptions) (int, error) {
	if spec.QPS <= 0 {
		return 0, fmt.Errorf("qoserve: workload QPS must be positive")
	}
	if maxReplicas <= 0 {
		maxReplicas = 32
	}
	mc := serve.Hardware.config()
	factory, err := serve.factory(mc)
	if err != nil {
		return 0, err
	}
	gen := probeGen(serve, spec, opts.duration(), opts.Seed)
	n, _, err := cluster.MinReplicas(mc, factory, func() ([]*request.Request, error) {
		return gen(spec.QPS)
	}, maxReplicas, opts.search())
	return n, err
}
