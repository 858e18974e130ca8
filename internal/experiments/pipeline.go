package experiments

import (
	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/disagg"
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

func init() {
	register("pipeline", "Extension — end-to-end PD disaggregation (prefill tier + KV transfer + decode tier) vs colocation", runPipelineExperiment)
}

// runPipelineExperiment builds the decode-tier substrate the paper leaves
// to future work and compares, at a fixed moderate load: colocated QoServe
// on N replicas versus a disaggregated pipeline using the same N GPUs split
// between prefill and decode nodes, across interconnect speeds.
func runPipelineExperiment(e *Env) error {
	mc := model.Llama3_8B_A100_TP1()
	ref, err := e.refCapacity("pipe-ref", mc, e.QoServe(mc), workload.AzureConv, standardTiers(), e.Seed+22)
	if err != nil {
		return err
	}
	const totalGPUs = 4
	load := scaleLoads(ref*totalGPUs, []float64{0.5})[0] // comfortable shared load
	e.printf("Per-replica QoServe capacity %.2f QPS; running %d GPUs at %.2f QPS total\n\n",
		ref, totalGPUs, load)

	e.printf("%-34s%12s%14s%14s%16s\n",
		"Deployment", "Viol(%)", "TTFT p50(s)", "TTFT p99(s)", "p99 gap Q1(ms)")

	// Colocated baseline.
	trace, err := e.Trace(workload.AzureConv, standardTiers(), load, e.Seed+22)
	if err != nil {
		return err
	}
	col, err := RunJudged(mc, totalGPUs, e.QoServe(mc), trace)
	if err != nil {
		return err
	}
	printPipelineRow(e, "Colocated QoServe x4", col)

	// Disaggregated: 2 prefill + 2 decode nodes, QoServe on the prefill
	// tier with the 8K disagg chunk, across link speeds.
	opts := core.DefaultOptions()
	opts.MaxChunk = disagg.DefaultChunk
	for _, link := range []struct {
		name string
		bw   float64
	}{
		{"Disagg 2P+2D, NVLink 64GB/s", 64e9},
		{"Disagg 2P+2D, IB 12.5GB/s", 12.5e9},
		{"Disagg 2P+2D, Ethernet 1.25GB/s", 1.25e9},
	} {
		trace, err := e.Trace(workload.AzureConv, standardTiers(), load, e.Seed+22)
		if err != nil {
			return err
		}
		res, err := disagg.RunPipeline(disagg.PipelineConfig{
			Model:             mc,
			PrefillReplicas:   2,
			PrefillFactory:    e.QoServeOpts(mc, opts),
			DecodeReplicas:    2,
			StrictestTBT:      50 * sim.Millisecond,
			TransferBandwidth: link.bw,
		}, trace, cluster.Horizon(trace))
		if err != nil {
			return err
		}
		printPipelineRow(e, link.name, res.Summary)
		e.printf("%36s decode batch cap %d, median KV transfer %v\n",
			"", res.MaxDecodeBatch, res.TransferTimeP50)
	}
	e.printf("\n(Disaggregation isolates decode pacing from prefill interference — note the\nQ1 worst-gap column — and dedicates prefill capacity, at the price of the KV\ntransfer, which only bites on slow interconnects.)\n")
	return nil
}

func printPipelineRow(e *Env, label string, sum *metrics.Summary) {
	e.printf("%-34s%12.2f%14.2f%14.2f%16.1f\n", label,
		100*sum.ViolationRate(metrics.All),
		sum.TTFTQuantile(metrics.All, 0.5),
		sum.TTFTQuantile(metrics.All, 0.99),
		1000*sum.MaxTBTQuantile(metrics.ByClass("Q1"), 0.99))
}
