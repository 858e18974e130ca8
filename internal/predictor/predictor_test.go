package predictor

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qoserve/internal/model"
	"qoserve/internal/profile"
	"qoserve/internal/sim"
)

func trainedForest(t testing.TB) (*Forest, model.Config) {
	t.Helper()
	mc := model.Llama3_8B_A100_TP1()
	samples, err := profile.Collect(mc, profile.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Train(samples, ForestConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return f, mc
}

func TestTreeFitsSimpleFunction(t *testing.T) {
	// y = 2*x0: a tree should recover this within leaf-granularity error.
	var samples []profile.Sample
	for i := 0; i < 400; i++ {
		var f [profile.FeatureCount]float64
		f[0] = float64(i)
		samples = append(samples, profile.Sample{Features: f, Latency: 2 * float64(i)})
	}
	tree := FitTree(samples, nil, TreeConfig{}, nil)
	for _, x := range []float64{10, 100, 250, 399} {
		var f [profile.FeatureCount]float64
		f[0] = x
		got := tree.Predict(f)
		if math.Abs(got-2*x) > 25 { // leaves average ~4+ points
			t.Errorf("tree(%v) = %v, want ~%v", x, got, 2*x)
		}
	}
	if tree.Depth() < 3 {
		t.Errorf("tree suspiciously shallow: %v", tree)
	}
}

func TestTreeRespectsMinLeaf(t *testing.T) {
	var samples []profile.Sample
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		var f [profile.FeatureCount]float64
		f[0] = rng.Float64()
		samples = append(samples, profile.Sample{Features: f, Latency: rng.Float64()})
	}
	tree := FitTree(samples, nil, TreeConfig{MinLeaf: 50}, nil)
	// With min leaf 50 over 100 samples, at most one split.
	if tree.Nodes() > 3 {
		t.Errorf("tree has %d nodes, expected <= 3", tree.Nodes())
	}
}

func TestTreeConstantTarget(t *testing.T) {
	var samples []profile.Sample
	for i := 0; i < 50; i++ {
		var f [profile.FeatureCount]float64
		f[0] = float64(i)
		samples = append(samples, profile.Sample{Features: f, Latency: 7})
	}
	tree := FitTree(samples, nil, TreeConfig{}, nil)
	if tree.Nodes() != 1 {
		t.Errorf("constant-target tree has %d nodes, want 1", tree.Nodes())
	}
	var f [profile.FeatureCount]float64
	if got := tree.Predict(f); got != 7 {
		t.Errorf("predict = %v, want 7", got)
	}
}

// TestForestAccuracy is the paper's <10% error-margin claim: the forest
// should predict batch latency within ~10% on unseen shapes.
func TestForestAccuracy(t *testing.T) {
	f, mc := trainedForest(t)
	rng := rand.New(rand.NewSource(99))
	var worst, sumErr float64
	const trials = 300
	for i := 0; i < trials; i++ {
		shape := model.BatchShape{}
		if rng.Intn(4) > 0 {
			shape.Prefill = []model.ChunkShape{{
				Tokens:   64 + rng.Intn(3000),
				CtxStart: rng.Intn(6000),
			}}
		}
		for d := rng.Intn(40); d > 0; d-- {
			shape.DecodeCtx = append(shape.DecodeCtx, rng.Intn(8000))
		}
		if shape.TotalNewTokens() == 0 {
			continue
		}
		truth := mc.BatchTime(shape).Seconds()
		pred := f.Predict(shape).Seconds()
		rel := math.Abs(pred-truth) / truth
		sumErr += rel
		if rel > worst {
			worst = rel
		}
	}
	if avg := sumErr / trials; avg > 0.10 {
		t.Errorf("mean relative error %.3f, want < 0.10", avg)
	}
	if worst > 0.60 {
		t.Errorf("worst relative error %.3f unreasonably high", worst)
	}
}

func TestPredictSafeInflates(t *testing.T) {
	f, _ := trainedForest(t)
	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 512}},
		DecodeCtx: []int{1000, 2000},
	}
	raw := f.Predict(shape)
	safe := f.PredictSafe(shape)
	ratio := float64(safe) / float64(raw)
	if math.Abs(ratio-1.10) > 1e-6 {
		t.Errorf("safe/raw = %v, want 1.10", ratio)
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, ForestConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
	samples := make([]profile.Sample, 100)
	if _, err := Train(samples, ForestConfig{SampleFrac: 2}); err == nil {
		t.Error("sample fraction > 1 accepted")
	}
	if _, err := Train(samples, ForestConfig{SafetyMargin: 1.5}); err == nil {
		t.Error("margin > 1 accepted")
	}
}

func TestOraclePredictsExactly(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	o := Oracle{Config: mc}
	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 777, CtxStart: 123}},
		DecodeCtx: []int{50, 60},
	}
	if o.Predict(shape) != mc.BatchTime(shape) {
		t.Error("oracle deviates from cost model")
	}
	om := Oracle{Config: mc, Margin: 0.2}
	want := sim.Time(float64(mc.BatchTime(shape)) * 1.2)
	if got := om.PredictSafe(shape); got != want {
		t.Errorf("margined oracle = %v, want %v", got, want)
	}
}

// TestChunkBudgetRespectsBudget verifies the inverse query: the chunk
// returned always fits the budget under the safe prediction, and chunk+1
// would not (or the cap was hit).
func TestChunkBudgetRespectsBudget(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	o := Oracle{Config: mc}
	decodes := []int{1000, 2000, 500}
	for _, budgetMS := range []int{30, 50, 80, 120, 250} {
		budget := sim.Time(budgetMS) * sim.Millisecond
		chunk := ChunkBudget(o, decodes, 0, budget, 4096)
		shape := model.BatchShape{DecodeCtx: decodes}
		if chunk > 0 {
			shape.Prefill = []model.ChunkShape{{Tokens: chunk}}
		}
		if got := o.PredictSafe(shape); got > budget {
			t.Errorf("budget %v: chunk %d predicted %v over budget", budget, chunk, got)
		}
		if chunk < 4096 {
			shape.Prefill = []model.ChunkShape{{Tokens: chunk + 1}}
			if got := o.PredictSafe(shape); got <= budget {
				t.Errorf("budget %v: chunk %d+1 still fits (%v); not maximal", budget, chunk, got)
			}
		}
	}
}

func TestChunkBudgetEdges(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	o := Oracle{Config: mc}
	// Budget below the fixed overhead: nothing fits.
	if got := ChunkBudget(o, nil, 0, sim.Millisecond, 4096); got != 0 {
		t.Errorf("tiny budget chunk = %d, want 0", got)
	}
	// Huge budget: cap wins.
	if got := ChunkBudget(o, nil, 0, sim.Hour, 2500); got != 2500 {
		t.Errorf("huge budget chunk = %d, want 2500", got)
	}
	// Degenerate caps/budgets.
	if got := ChunkBudget(o, nil, 0, 0, 2500); got != 0 {
		t.Errorf("zero budget chunk = %d", got)
	}
	if got := ChunkBudget(o, nil, 0, sim.Second, 0); got != 0 {
		t.Errorf("zero cap chunk = %d", got)
	}
}

// TestChunkBudgetUnderPredictionBias: with a forest, the margin must make
// the realized (true) latency of the chosen chunk exceed the budget only
// rarely and mildly. This is the "err on the side of under-predicting"
// requirement.
func TestChunkBudgetUnderPredictionBias(t *testing.T) {
	f, mc := trainedForest(t)
	rng := rand.New(rand.NewSource(17))
	over := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		var decodes []int
		for d := rng.Intn(20); d > 0; d-- {
			decodes = append(decodes, rng.Intn(4000))
		}
		budget := sim.Time(30+rng.Intn(200)) * sim.Millisecond
		chunk := ChunkBudget(f, decodes, rng.Intn(4000), budget, 4096)
		if chunk == 0 {
			continue
		}
		shape := model.BatchShape{
			Prefill:   []model.ChunkShape{{Tokens: chunk}},
			DecodeCtx: decodes,
		}
		truth := mc.BatchTime(shape)
		if truth > budget+budget/10 { // >10% over budget counts as a blown target
			over++
		}
	}
	if frac := float64(over) / trials; frac > 0.05 {
		t.Errorf("blown budgets in %.1f%% of trials, want <= 5%%", 100*frac)
	}
}

func TestForestTreeCount(t *testing.T) {
	f, _ := trainedForest(t)
	if f.Trees() != 20 {
		t.Errorf("forest has %d trees, want default 20", f.Trees())
	}
}

func BenchmarkForestPredict(b *testing.B) {
	f, _ := trainedForest(b)
	shape := model.BatchShape{
		Prefill:   []model.ChunkShape{{Tokens: 512, CtxStart: 800}},
		DecodeCtx: []int{100, 2000, 512, 4096, 900, 1500, 777, 3000},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Predict(shape)
	}
}

func BenchmarkChunkBudget(b *testing.B) {
	f, _ := trainedForest(b)
	decodes := []int{100, 2000, 512, 4096, 900, 1500, 777, 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ChunkBudget(f, decodes, 1000, 80*sim.Millisecond, 4096)
	}
}

func BenchmarkTrainForest(b *testing.B) {
	mc := model.Llama3_8B_A100_TP1()
	samples, err := profile.Collect(mc, profile.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(samples, ForestConfig{Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestForestSaveLoadRoundTrip(t *testing.T) {
	f, mc := trainedForest(t)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Trees() != f.Trees() {
		t.Fatalf("tree count %d != %d", back.Trees(), f.Trees())
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		shape := model.BatchShape{
			Prefill:   []model.ChunkShape{{Tokens: 1 + rng.Intn(3000), CtxStart: rng.Intn(4000)}},
			DecodeCtx: []int{rng.Intn(5000), rng.Intn(5000)},
		}
		if back.Predict(shape) != f.Predict(shape) {
			t.Fatalf("prediction differs after round trip on %+v", shape)
		}
		if back.PredictSafe(shape) != f.PredictSafe(shape) {
			t.Fatal("safe prediction differs after round trip")
		}
	}
	_ = mc
}

func TestLoadRejectsCorruptForests(t *testing.T) {
	cases := map[string]string{
		"garbage":     `{not json`,
		"bad version": `{"version":9,"margin":0.1,"trees":[{"nodes":[{"f":-1,"v":1}]}]}`,
		"bad margin":  `{"version":1,"margin":7,"trees":[{"nodes":[{"f":-1,"v":1}]}]}`,
		"no trees":    `{"version":1,"margin":0.1,"trees":[]}`,
		"empty tree":  `{"version":1,"margin":0.1,"trees":[{"nodes":[]}]}`,
		"bad feature": `{"version":1,"margin":0.1,"trees":[{"nodes":[{"f":99,"l":1,"r":2},{"f":-1,"v":1},{"f":-1,"v":2}]}]}`,
		"self cycle":  `{"version":1,"margin":0.1,"trees":[{"nodes":[{"f":0,"l":0,"r":0}]}]}`,
		"oob child":   `{"version":1,"margin":0.1,"trees":[{"nodes":[{"f":0,"l":5,"r":6}]}]}`,
	}
	for name, payload := range cases {
		if _, err := Load(strings.NewReader(payload)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestTrainedSharedPerKey checks the process-wide memo: concurrent callers
// for one (model, seed) share a single forest, and another seed trains its
// own.
func TestTrainedSharedPerKey(t *testing.T) {
	mc := model.Llama3_8B_A100_TP1()
	const callers = 8
	got := make([]*Forest, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := Trained(mc, 1)
			if err != nil {
				t.Error(err)
			}
			got[i] = f
		}()
	}
	wg.Wait()
	for i, f := range got {
		if f == nil || f != got[0] {
			t.Fatalf("caller %d got forest %p, caller 0 got %p", i, f, got[0])
		}
	}
	other, err := Trained(mc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] {
		t.Fatal("seeds 1 and 2 share a forest")
	}
	shape := model.BatchShape{Prefill: []model.ChunkShape{{Tokens: 1000}}, DecodeCtx: []int{500, 2000}}
	if other.Predict(shape) == got[0].Predict(shape) {
		t.Error("seeds 1 and 2 trained identical forests")
	}
}
