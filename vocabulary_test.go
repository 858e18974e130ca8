package qoserve

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qoserve/internal/cluster"
	"qoserve/internal/core"
	"qoserve/internal/model"
	"qoserve/internal/sched"
)

// TestVocabulary pins the one name table every entry point resolves
// through: hardware names match the public Hardware enum, policy names build
// the expected scheduler, balancer names build the expected routing
// interface, and unknown names fail naming the offending value.
func TestVocabulary(t *testing.T) {
	// Chunk -1 checks that a non-positive chunk means sched.DefaultChunk.
	deploy := cluster.Deployment{Model: model.Llama3_8B_A100_TP1(), Seed: 1, Chunk: -1, QoServe: core.DefaultOptions()}
	cases := []struct {
		kind, name string
		hw         Hardware // hardware: the matching public enum
		sched      string   // policy: the built scheduler's Name()
		balancer   string   // balancer: the routing interface it satisfies
		wantErr    bool
	}{
		{kind: "hardware", name: "llama3-8b", hw: Llama3_8B_A100},
		{kind: "hardware", name: "qwen-7b", hw: Qwen_7B_2xA100},
		{kind: "hardware", name: "llama3-70b", hw: Llama3_70B_4xH100},
		{kind: "hardware", name: "a100", wantErr: true},
		{kind: "policy", name: "qoserve", sched: "QoServe"},
		{kind: "policy", name: "sarathi-fcfs", sched: "Sarathi-FCFS"},
		{kind: "policy", name: "sarathi-edf", sched: "Sarathi-EDF"},
		{kind: "policy", name: "sarathi-sjf", sched: "Sarathi-SJF"},
		{kind: "policy", name: "sarathi-srpf", sched: "Sarathi-SRPF"},
		{kind: "policy", name: "vllm", sched: "vLLM"},
		{kind: "policy", name: "medha", sched: "Medha"},
		{kind: "policy", name: "sarathi", wantErr: true},
		{kind: "balancer", name: "round-robin", balancer: "GatewayBalancer"},
		{kind: "balancer", name: "least-loaded", balancer: "GatewayBalancer"},
		{kind: "balancer", name: "prefix", balancer: "PrefixRouter"},
		{kind: "balancer", name: "predicted", balancer: "PrefixSnapshotBalancer"},
		{kind: "balancer", name: "random", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.kind+"/"+tc.name, func(t *testing.T) {
			var (
				got any
				err error
			)
			switch tc.kind {
			case "hardware":
				got, err = model.ByName(tc.name)
			case "policy":
				got, err = deploy.Scheduler(tc.name)
			case "balancer":
				got, err = deploy.Balancer(tc.name)
			}
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.name)) {
					t.Fatalf("err = %v, want one naming %q", err, tc.name)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			switch got := got.(type) {
			case model.Config:
				if !reflect.DeepEqual(got, tc.hw.config()) {
					t.Errorf("config %s, want %s", got.Name(), tc.hw)
				}
			case cluster.SchedulerFactory:
				s := got()
				if s.Name() != tc.sched {
					t.Errorf("scheduler %s, want %s", s.Name(), tc.sched)
				}
				if s, ok := s.(*sched.Sarathi); ok && s.Chunk() != sched.DefaultChunk {
					t.Errorf("chunk %d, want %d", s.Chunk(), sched.DefaultChunk)
				}
			case cluster.GatewayBalancer:
				var ok bool
				switch tc.balancer {
				case "PrefixRouter":
					_, ok = got.(cluster.PrefixRouter)
				case "PrefixSnapshotBalancer":
					_, ok = got.(cluster.PrefixSnapshotBalancer)
				default:
					ok = true
				}
				if !ok {
					t.Errorf("%T is not a cluster.%s", got, tc.balancer)
				}
			}
		})
	}
}
