// Command qoserve-sim runs one serving simulation from the command line:
// synthesize (or load) a workload, serve it with a chosen policy and
// deployment, and print per-tier results.
//
// Examples:
//
//	qoserve-sim -dataset Azure-Code -qps 3 -duration 10m -policy qoserve
//	qoserve-sim -dataset ShareGPT -qps 2 -duration 5m -policy sarathi-edf -replicas 2
//	qoserve-sim -trace trace.jsonl -policy qoserve
//	qoserve-sim -qps 2 -burst-qps 5 -burst-period 2m -duration 20m -low-priority 0.2
//	qoserve-sim -replicas 4 -fail "crash@2m:1,restart@4m:1"
//	qoserve-sim -replicas 4 -fail-mtbf 5m -fail-mttr 1m -fail-seed 7
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"qoserve"
	"qoserve/internal/cluster"
	"qoserve/internal/model"
	"qoserve/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qoserve-sim: ")

	var (
		datasetName = flag.String("dataset", "Azure-Code", "workload dataset: ShareGPT, Azure-Conv, Azure-Code")
		qps         = flag.Float64("qps", 3, "mean arrival rate (requests/second)")
		burstQPS    = flag.Float64("burst-qps", 0, "peak rate for a square-wave bursty workload (0 = steady)")
		burstPeriod = flag.Duration("burst-period", 2*time.Minute, "half-period of the bursty square wave")
		duration    = flag.Duration("duration", 10*time.Minute, "trace duration")
		lowPrio     = flag.Float64("low-priority", 0, "fraction of requests tagged free-tier")
		seed        = flag.Int64("seed", 1, "workload seed")
		policyName  = flag.String("policy", "qoserve", cluster.PolicyNames())
		hardware    = flag.String("hardware", "llama3-8b", model.Names())
		replicas    = flag.Int("replicas", 1, "shared-cluster replica count")
		chunk       = flag.Int("chunk", 0, "fixed chunk for Sarathi policies (default 256)")
		alpha       = flag.Duration("alpha", 0, "QoServe hybrid alpha per token (0 = paper default, adaptive)")
		tracePath   = flag.String("trace", "", "serve a JSON-lines trace file instead of synthesizing")
		outPath     = flag.String("out", "", "write per-request outcomes as CSV to this path")

		failSpec    = flag.String("fail", "", `explicit fault schedule, e.g. "crash@30s:1,restart@1m30s:1,slow@10s:2x3"`)
		failMTBF    = flag.Duration("fail-mtbf", 0, "mean time between replica failures for a seeded random schedule (0 = no random faults)")
		failMTTR    = flag.Duration("fail-mttr", 0, "mean time to recovery for random faults (0 = crashed replicas stay down)")
		failSeed    = flag.Int64("fail-seed", 1, "fault schedule seed")
		failRetries = flag.Int("fail-retries", 0, "max re-enqueues per crashed request (0 = default 3)")
		failBackoff = flag.Duration("fail-backoff", 0, "delay before first re-enqueue, doubling per retry (0 = default 50ms)")
	)
	flag.Parse()

	var hw qoserve.Hardware
	switch *hardware {
	case "llama3-8b":
		hw = qoserve.Llama3_8B_A100
	case "qwen-7b":
		hw = qoserve.Qwen_7B_2xA100
	case "llama3-70b":
		hw = qoserve.Llama3_70B_4xH100
	default:
		log.Fatalf("unknown hardware %q", *hardware)
	}

	var (
		reqs []qoserve.Request
		err  error
	)
	if *tracePath != "" {
		reqs, err = loadTrace(*tracePath)
	} else {
		var ds qoserve.Dataset
		switch *datasetName {
		case "ShareGPT":
			ds = qoserve.DatasetShareGPT
		case "Azure-Conv":
			ds = qoserve.DatasetAzureConv
		case "Azure-Code":
			ds = qoserve.DatasetAzureCode
		default:
			log.Fatalf("unknown dataset %q", *datasetName)
		}
		spec := qoserve.WorkloadSpec{
			Dataset:             ds,
			QPS:                 *qps,
			Duration:            *duration,
			LowPriorityFraction: *lowPrio,
			Seed:                *seed,
		}
		if *burstQPS > 0 {
			spec.BurstQPS = *burstQPS
			spec.BurstPeriod = *burstPeriod
		}
		reqs, err = qoserve.GenerateWorkload(spec)
	}
	if err != nil {
		log.Fatal(err)
	}

	opts := qoserve.Options{
		Hardware: hw,
		Policy:   qoserve.Policy(*policyName),
		Replicas: *replicas,
		Chunk:    *chunk,
		QoServe: qoserve.QoServeTuning{
			Alpha:                *alpha,
			DisableAdaptiveAlpha: *alpha > 0,
		},
		Faults: qoserve.FaultPlan{
			Schedule:     *failSpec,
			MTBF:         *failMTBF,
			MTTR:         *failMTTR,
			Seed:         *failSeed,
			MaxRetries:   *failRetries,
			RetryBackoff: *failBackoff,
		},
	}
	start := time.Now()
	report, err := qoserve.Serve(opts, reqs)
	if err != nil {
		log.Fatal(err)
	}

	if *outPath != "" {
		if err := writeOutcomesCSV(*outPath, report); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d outcomes to %s", len(report.Outcomes), *outPath)
	}
	fmt.Printf("policy=%s hardware=%s replicas=%d requests=%d simulated=%v wall=%v\n",
		*policyName, hw, report.Replicas, len(report.Outcomes),
		report.Duration.Round(time.Second), time.Since(start).Round(time.Millisecond))
	fmt.Printf("violations=%.2f%% relegated=%.2f%% goodput=%.3f req/s/replica\n",
		100*report.ViolationRate, 100*report.RelegationRate, report.Goodput)
	if f := report.Faults; f != nil {
		fmt.Printf("faults: crashes=%d restarts=%d retries=%d lost_tokens=%d failed=%d\n",
			f.Crashes, f.Restarts, f.Retries, f.LostTokens, f.FailedRequests)
	}
	for _, c := range qoserve.DefaultClasses() {
		if report.ViolationRateOf(c.Name) == 0 && report.TTFTPercentile(c.Name, 0.5) == 0 {
			continue
		}
		fmt.Printf("  %-3s violations=%.2f%% TTFT p50=%v p99=%v TTLT p99=%v\n",
			c.Name,
			100*report.ViolationRateOf(c.Name),
			report.TTFTPercentile(c.Name, 0.5).Round(time.Millisecond),
			report.TTFTPercentile(c.Name, 0.99).Round(time.Millisecond),
			report.TTLTPercentile(c.Name, 0.99).Round(time.Millisecond))
	}
}

// writeOutcomesCSV dumps per-request outcomes for external analysis.
func writeOutcomesCSV(path string, report *qoserve.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write([]string{
		"id", "class", "priority", "completed", "violated", "relegated",
		"ttft_ms", "ttlt_ms", "max_tbt_ms", "retries", "fail_reason",
	}); err != nil {
		return err
	}
	for _, o := range report.Outcomes {
		prio := "high"
		if o.Priority == qoserve.Low {
			prio = "low"
		}
		rec := []string{
			strconv.FormatUint(o.ID, 10),
			o.Class,
			prio,
			strconv.FormatBool(o.Completed),
			strconv.FormatBool(o.Violated),
			strconv.FormatBool(o.Relegated),
			strconv.FormatFloat(float64(o.TTFT)/1e6, 'f', 3, 64),
			strconv.FormatFloat(float64(o.TTLT)/1e6, 'f', 3, 64),
			strconv.FormatFloat(float64(o.MaxTBT)/1e6, 'f', 3, 64),
			strconv.Itoa(o.Retries),
			o.FailReason,
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// loadTrace reads a JSON-lines trace produced by cmd/tracegen.
func loadTrace(path string) ([]qoserve.Request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	internal, err := workload.ReadTrace(f)
	if err != nil {
		return nil, err
	}
	out := make([]qoserve.Request, len(internal))
	for i, r := range internal {
		prio := qoserve.High
		if r.Priority != 0 {
			prio = qoserve.Low
		}
		out[i] = qoserve.Request{
			ID: r.ID, App: r.App, Class: r.Class.Name, Priority: prio,
			Arrival:      r.Arrival.Duration(),
			PromptTokens: r.PromptTokens,
			DecodeTokens: r.DecodeTokens,
		}
	}
	return out, nil
}
