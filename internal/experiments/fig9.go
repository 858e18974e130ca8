package experiments

import (
	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/replica"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

func init() {
	register("fig9", "Figure 9 — dynamic chunk sizes across consecutive batches (Azure-Conv, Llama3-8B)", runFig9)
}

// runFig9 records QoServe's per-iteration chunk decisions: when slack
// accumulates across decodes, chunks grow toward the 2500 cap; when an
// interactive decode is paced at its TBT, chunks shrink toward the
// TBT-fitting size. It prints 200 consecutive mid-run batches like the
// paper's trace, plus aggregate statistics.
func runFig9(e *Env) error {
	mc := model.Llama3_8B_A100_TP1()
	trace, err := e.Trace(workload.AzureConv, standardTiers(), 2.5, e.Seed+4)
	if err != nil {
		return err
	}
	qsv := core.New(e.Predictor(mc), core.DefaultOptions())
	qsv.EnableChunkLog()
	if _, _, err := replica.Run(mc, qsv, trace, cluster.Horizon(trace)); err != nil {
		return err
	}
	log := qsv.ChunkLog()
	if len(log) == 0 {
		e.printf("no iterations recorded\n")
		return nil
	}

	start := len(log) / 3
	endIdx := start + 200
	if endIdx > len(log) {
		endIdx = len(log)
	}
	e.printf("%-10s%10s%10s%14s%14s\n", "Batch", "Chunk", "Decodes", "Budget(ms)", "Exec(ms)")
	for i := start; i < endIdx; i++ {
		rec := log[i]
		budget := rec.Budget.Seconds() * 1000
		if rec.Budget == sim.Forever || budget > 1e6 {
			budget = -1 // unconstrained
		}
		e.printf("%-10d%10d%10d%14.1f%14.1f\n",
			i, rec.Chunk, rec.Decodes, budget, rec.ExecTime.Seconds()*1000)
	}

	// Aggregate from the scheduler's running counters, which cover every
	// iteration even past the chunk-log retention cap.
	n, sum, atMax := qsv.ChunkStats()
	if n > 0 {
		e.printf("\nIterations with prefill: %d; mean chunk %d; %.1f%% at the 2500 cap\n",
			n, sum/n, 100*float64(atMax)/float64(n))
	}
	return nil
}
