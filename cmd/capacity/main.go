// Command capacity runs the two capacity searches behind the paper's
// cluster-provisioning results:
//
//	capacity goodput  — maximum per-replica QPS within the violation target
//	                    for each scheduler (Fig. 7's metric)
//	capacity replicas — minimum shared-cluster size for a fixed load
//	                    (Table 4's metric)
//
// Examples:
//
//	capacity -dataset Azure-Code goodput
//	capacity -dataset Azure-Code -qps 35 -max-replicas 16 replicas
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/request"
	"qoserve/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("capacity: ")

	var (
		datasetName = flag.String("dataset", "Azure-Code", "ShareGPT, Azure-Conv, or Azure-Code")
		duration    = flag.Duration("duration", 10*time.Minute, "probe trace duration")
		seed        = flag.Int64("seed", 1, "workload seed")
		maxViol     = flag.Float64("max-violations", 0.01, "admissible violation fraction")
		qps         = flag.Float64("qps", 35, "fixed load for the 'replicas' search")
		maxReplicas = flag.Int("max-replicas", 32, "upper bound for the 'replicas' search")
	)
	flag.Parse()

	mode := flag.Arg(0)
	if mode != "goodput" && mode != "replicas" {
		log.Fatalf("usage: capacity [flags] goodput|replicas")
	}

	ds, err := workload.DatasetByName(*datasetName)
	if err != nil {
		log.Fatal(err)
	}
	mc := model.Llama3_8B_A100_TP1()
	tiers := workload.EqualTiers(qos.Table3())

	gen := func(rate float64) ([]*request.Request, error) {
		n := int(rate * duration.Seconds())
		if n < 50 {
			n = 50
		}
		return workload.Generate(workload.Spec{
			Dataset: ds, Tiers: tiers,
			Arrivals: workload.Poisson{QPS: rate},
			Requests: n, Seed: *seed,
		})
	}
	opts := cluster.SearchOptions{
		MaxViolations: *maxViol,
		Tolerance:     0.05,
		HorizonFor:    cluster.Horizon,
	}
	deploy := cluster.Deployment{Model: mc, Seed: *seed, Chunk: 256, QoServe: core.DefaultOptions()}
	if mode == "goodput" {
		fmt.Printf("%-14s%16s\n", "Scheduler", "Goodput (QPS)")
	} else {
		fmt.Printf("Load %.1f QPS on %s, target <=%.1f%% violations\n",
			*qps, ds.Name, 100**maxViol)
		fmt.Printf("%-14s%12s\n", "Scheduler", "Replicas")
	}
	for _, policy := range []string{"sarathi-fcfs", "sarathi-edf", "qoserve"} {
		f, err := deploy.Scheduler(policy)
		if err != nil {
			log.Fatal(err)
		}
		name := f().Name()
		if mode == "goodput" {
			rate, _, err := cluster.MaxGoodput(mc, f, gen, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-14s%16.2f\n", name, rate)
			continue
		}
		n, _, err := cluster.MinReplicas(mc, f, func() ([]*request.Request, error) {
			return gen(*qps)
		}, *maxReplicas, opts)
		if err != nil {
			fmt.Printf("%-14s%12s (%v)\n", name, "-", err)
			continue
		}
		fmt.Printf("%-14s%12d\n", name, n)
	}
}
