package experiments

import (
	"qoserve/internal/cluster"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

func init() {
	register("lb", "Extra ablation — round-robin vs least-loaded balancing across QoServe replicas", runLB)
}

// runLB compares the paper's round-robin load balancing against
// least-pending routing on a 4-replica QoServe cluster near saturation,
// where round-robin's blindness to skew (one replica stuck behind several
// huge prompts) shows up in tail TTFT.
func runLB(e *Env) error {
	mc := model.Llama3_8B_A100_TP1()
	const replicas = 4
	ref, err := e.refCapacity("lb-ref", mc, e.QoServe(mc), workload.AzureCode, standardTiers(), e.Seed+20)
	if err != nil {
		return err
	}
	e.printf("Per-replica reference capacity (QoServe): %.2f QPS; cluster of %d replicas\n", ref, replicas)

	e.printf("%-16s%16s%18s%16s\n", "Balancer", "Violations(%)", "Q1 p99 TTFT(s)", "Q1 p50 TTFT(s)")
	for _, b := range []struct {
		name string
		mk   func() cluster.Balancer
	}{
		{"round-robin", func() cluster.Balancer { return &cluster.RoundRobin{} }},
		{"least-pending", func() cluster.Balancer { return cluster.LeastPending{} }},
	} {
		trace, err := e.Trace(workload.AzureCode, standardTiers(), ref*replicas*0.95, e.Seed+20)
		if err != nil {
			return err
		}
		engine := sim.NewEngine()
		c, err := cluster.New(engine, mc, replicas, e.QoServe(mc))
		if err != nil {
			return err
		}
		c.SetBalancer(b.mk())
		for _, r := range trace {
			r := r
			engine.AtPriority(r.Arrival, -1, sim.EventFunc(func(_ *sim.Engine, _ sim.Time) {
				c.Submit(r)
			}))
		}
		end := engine.RunUntil(cluster.Horizon(trace))
		sum := metrics.NewSummary(trace, end, replicas)
		e.printf("%-16s%16.2f%18.2f%16.2f\n", b.name,
			100*sum.ViolationRate(metrics.All),
			sum.TTFTQuantile(metrics.ByClass("Q1"), 0.99),
			sum.TTFTQuantile(metrics.ByClass("Q1"), 0.5))
	}
	return nil
}
