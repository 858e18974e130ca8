package model

import (
	"fmt"
	"strings"

	"qoserve/internal/sim"
)

// GPU presets matching the paper's hardware (Table 1).
var (
	// A100 is the NVIDIA A100-80GB SXM: 312 TFLOP/s bf16, ~2 TB/s HBM2e.
	A100 = GPUSpec{
		Name:         "A100",
		FLOPS:        312e12,
		MemBandwidth: 2.039e12,
		MemBytes:     80e9,
		InterconnBW:  300e9,
	}
	// H100 is the NVIDIA H100-80GB SXM: 989 TFLOP/s bf16, 3.35 TB/s HBM3.
	H100 = GPUSpec{
		Name:         "H100",
		FLOPS:        989e12,
		MemBandwidth: 3.35e12,
		MemBytes:     80e9,
		InterconnBW:  450e9,
	}
)

// Model presets matching the paper's Table 1.
var (
	// Llama3_8B uses grouped-query attention (8 KV heads).
	Llama3_8B = ModelSpec{
		Name: "Llama3-8B", Params: 8.0e9,
		Layers: 32, Hidden: 4096, QHeads: 32, KVHeads: 8, HeadDim: 128,
		Attention: GQA,
	}
	// Qwen_7B uses full multi-head attention, so its KV cache is 4x the
	// size of Llama3-8B's and decode attention is proportionally more
	// expensive.
	Qwen_7B = ModelSpec{
		Name: "Qwen-7B", Params: 7.0e9,
		Layers: 32, Hidden: 4096, QHeads: 32, KVHeads: 32, HeadDim: 128,
		Attention: MHA,
	}
	// Llama3_70B uses grouped-query attention (8 KV heads).
	Llama3_70B = ModelSpec{
		Name: "Llama3-70B", Params: 70.0e9,
		Layers: 80, Hidden: 8192, QHeads: 64, KVHeads: 8, HeadDim: 128,
		Attention: GQA,
	}
)

// The calibration constants below were chosen so the Llama3-8B/A100-TP1
// chunk-size curve matches the paper's Figure 4 anchors: ~50 ms iteration
// latency at chunk 330, throughput at chunk 2500 roughly double that at
// chunk 256, and saturation near 2500. See model_test.go for the asserted
// invariants.
const (
	defaultEfficiency = 0.65
	a100TP1Overhead   = 24 * sim.Millisecond
	a100TP2Overhead   = 26 * sim.Millisecond
	h100TP4Overhead   = 30 * sim.Millisecond
)

// Llama3_8B_A100_TP1 is the paper's primary configuration.
func Llama3_8B_A100_TP1() Config {
	return mustConfig(Llama3_8B, A100, 1, defaultEfficiency, a100TP1Overhead)
}

// Qwen_7B_A100_TP2 is the MHA configuration from Table 1.
func Qwen_7B_A100_TP2() Config {
	return mustConfig(Qwen_7B, A100, 2, defaultEfficiency, a100TP2Overhead)
}

// Llama3_70B_H100_TP4 is the large-model configuration from Table 1.
func Llama3_70B_H100_TP4() Config {
	return mustConfig(Llama3_70B, H100, 4, defaultEfficiency, h100TP4Overhead)
}

// Presets returns the three evaluation configurations in Table 1 order.
func Presets() []Config {
	return []Config{Llama3_8B_A100_TP1(), Qwen_7B_A100_TP2(), Llama3_70B_H100_TP4()}
}

// presetNames are ByName's names for Presets(), in the same order.
var presetNames = []string{"llama3-8b", "qwen-7b", "llama3-70b"}

// ByName resolves a hardware name to its Table 1 configuration.
func ByName(name string) (Config, error) {
	for i, n := range presetNames {
		if n == name {
			return Presets()[i], nil
		}
	}
	return Config{}, fmt.Errorf("unknown hardware %q (want %s)", name, Names())
}

// Names lists the names ByName accepts as "a | b | c", for flag help.
func Names() string { return strings.Join(presetNames, " | ") }

func mustConfig(m ModelSpec, g GPUSpec, tp int, eff float64, ovh sim.Time) Config {
	c, err := NewConfig(m, g, tp, eff, ovh)
	if err != nil {
		panic(err)
	}
	return c
}
