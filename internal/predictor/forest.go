package predictor

import (
	"fmt"
	"math/rand"
	"sync"

	"qoserve/internal/model"
	"qoserve/internal/profile"
	"qoserve/internal/sim"
)

// LatencyPredictor estimates the execution latency of a batch shape. The
// replica's scheduler consults it every iteration, so implementations must
// be cheap (the paper reports CPU-side prediction with negligible
// overhead).
type LatencyPredictor interface {
	Predict(b model.BatchShape) sim.Time
}

// ForestConfig controls random-forest training.
type ForestConfig struct {
	Trees         int     // default 20
	SampleFrac    float64 // bootstrap fraction per tree, default 0.7
	Tree          TreeConfig
	FeatureSubset int   // features per split, default 3 of 5
	Seed          int64 // PRNG seed for bagging
	// SafetyMargin inflates predictions used for budget inversion so the
	// chunk choice under-shoots rather than over-shoots (Section 3.6.1);
	// default 0.10 (10%).
	SafetyMargin float64
}

func (c ForestConfig) withDefaults() ForestConfig {
	if c.Trees == 0 {
		c.Trees = 20
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.7
	}
	if c.FeatureSubset == 0 {
		c.FeatureSubset = 3
	}
	if c.SafetyMargin == 0 {
		c.SafetyMargin = 0.10
	}
	return c
}

// Forest is a bagged ensemble of regression trees implementing
// LatencyPredictor.
type Forest struct {
	trees  []*Tree
	margin float64
	// flat concatenates every tree's nodes into one contiguous array with
	// child indices rebased (roots[i] is tree i's root), so ensemble
	// prediction walks a single cache-friendly slice instead of chasing a
	// pointer per tree. Built by finalize after training or loading.
	flat  []treeNode
	roots []int32
}

// finalize builds the flattened node array. It must be called whenever the
// tree set changes; predictions read only the flattened form.
func (f *Forest) finalize() {
	total := 0
	for _, t := range f.trees {
		total += len(t.nodes)
	}
	f.flat = make([]treeNode, 0, total)
	f.roots = make([]int32, 0, len(f.trees))
	for _, t := range f.trees {
		base := int32(len(f.flat))
		f.roots = append(f.roots, base)
		for _, n := range t.nodes {
			if n.feature >= 0 {
				n.left += base
				n.right += base
			}
			f.flat = append(f.flat, n)
		}
	}
}

// Train fits a random forest on profiled samples.
func Train(samples []profile.Sample, cfg ForestConfig) (*Forest, error) {
	cfg = cfg.withDefaults()
	if len(samples) < 2*cfg.Tree.withDefaults().MinLeaf {
		return nil, fmt.Errorf("predictor: %d samples is too few to train", len(samples))
	}
	if cfg.SampleFrac <= 0 || cfg.SampleFrac > 1 {
		return nil, fmt.Errorf("predictor: sample fraction %v outside (0,1]", cfg.SampleFrac)
	}
	if cfg.SafetyMargin < 0 || cfg.SafetyMargin > 1 {
		return nil, fmt.Errorf("predictor: safety margin %v outside [0,1]", cfg.SafetyMargin)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	treeCfg := cfg.Tree
	treeCfg.FeatureSubset = cfg.FeatureSubset

	f := &Forest{margin: cfg.SafetyMargin}
	perTree := int(cfg.SampleFrac * float64(len(samples)))
	if perTree < 1 {
		perTree = 1
	}
	for t := 0; t < cfg.Trees; t++ {
		idx := make([]int, perTree)
		for i := range idx {
			idx[i] = rng.Intn(len(samples))
		}
		pick := func(n int) []int {
			perm := rng.Perm(profile.FeatureCount)
			return perm[:n]
		}
		f.trees = append(f.trees, FitTree(samples, idx, treeCfg, pick))
	}
	f.finalize()
	return f, nil
}

// memo holds one *memoEntry per (model name, seed) Trained has seen.
var memo sync.Map

type memoKey struct {
	model string
	seed  int64
}

type memoEntry struct {
	once   sync.Once
	forest *Forest
	err    error
}

// Trained profiles mc and trains the default forest with the given seed
// (Section 3.6.1: one profile per deployment configuration), at most once
// per (model name, seed) per process. Callers for one key share its forest,
// which is read-only at predict time; other keys never wait on it.
func Trained(mc model.Config, seed int64) (*Forest, error) {
	v, _ := memo.LoadOrStore(memoKey{mc.Name(), seed}, &memoEntry{})
	t := v.(*memoEntry)
	t.once.Do(func() {
		samples, err := profile.Collect(mc, profile.Config{Seed: seed})
		if err != nil {
			t.err = err
			return
		}
		t.forest, t.err = Train(samples, ForestConfig{Seed: seed})
	})
	return t.forest, t.err
}

// Predict returns the mean prediction across trees, without the safety
// margin (raw latency estimate).
//
//qoserve:hotpath
func (f *Forest) Predict(b model.BatchShape) sim.Time {
	return f.PredictFeats(profile.Features(b))
}

// PredictSafe returns the margin-inflated prediction used for budget
// checks: latency the scheduler should assume the batch takes.
//
//qoserve:hotpath
func (f *Forest) PredictSafe(b model.BatchShape) sim.Time {
	return sim.Time(float64(f.Predict(b)) * (1 + f.margin))
}

// PredictFeats evaluates a raw feature vector against the flattened
// ensemble. This is the allocation-free core of Predict: the scheduler's
// budget searches probe it a dozen times per planned batch.
//
//qoserve:hotpath
func (f *Forest) PredictFeats(x [profile.FeatureCount]float64) sim.Time {
	s := 0.0
	for _, root := range f.roots {
		i := root
		for {
			n := &f.flat[i]
			if n.feature < 0 {
				s += n.value
				break
			}
			if x[n.feature] <= n.threshold {
				i = n.left
			} else {
				i = n.right
			}
		}
	}
	return sim.FromSeconds(s / float64(len(f.roots)))
}

// PredictSafeFeats is PredictFeats with the safety margin applied,
// matching PredictSafe exactly.
//
//qoserve:hotpath
func (f *Forest) PredictSafeFeats(x [profile.FeatureCount]float64) sim.Time {
	return sim.Time(float64(f.PredictFeats(x)) * (1 + f.margin))
}

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }

// Oracle is a LatencyPredictor that consults the analytic cost model
// directly. It is the "perfect predictor" used in ablations to separate
// prediction error from scheduling policy.
type Oracle struct {
	Config model.Config
	// Margin mirrors the forest's safety margin so ablations isolate the
	// learning, not the conservatism. Usually 0 for a true oracle.
	Margin float64
}

// Predict returns the exact batch time.
func (o Oracle) Predict(b model.BatchShape) sim.Time {
	return o.Config.BatchTime(b)
}

// PredictSafe returns the margin-inflated exact time.
func (o Oracle) PredictSafe(b model.BatchShape) sim.Time {
	return sim.Time(float64(o.Predict(b)) * (1 + o.Margin))
}

// SafePredictor is the interface dynamic chunking needs: a conservative
// latency estimate.
type SafePredictor interface {
	LatencyPredictor
	PredictSafe(b model.BatchShape) sim.Time
}

// FeaturePredictor is implemented by predictors that can price a raw
// feature vector directly, without a model.BatchShape being materialized.
// The planner's budget searches use it to probe candidate chunk sizes
// allocation-free: the decode side of the feature vector is fixed across
// every probe of one plan, so only the chunk fields change. Predictors
// that need the full per-request shape (the analytic Oracle) simply do not
// implement it, and callers fall back to the shape-based path.
type FeaturePredictor interface {
	PredictFeats(x [profile.FeatureCount]float64) sim.Time
	PredictSafeFeats(x [profile.FeatureCount]float64) sim.Time
}

// NoMargin adapts a predictor so its safe estimate equals its raw estimate.
// Schedulers use it in regimes where conservatism only wastes throughput —
// e.g. when the iteration budget is already floored at a TBT target and the
// affected tokens are late regardless.
func NoMargin(p LatencyPredictor) SafePredictor {
	if fp, ok := p.(FeaturePredictor); ok {
		return noMarginFeats{noMargin{p}, fp}
	}
	return noMargin{p}
}

type noMargin struct{ LatencyPredictor }

func (n noMargin) PredictSafe(b model.BatchShape) sim.Time { return n.Predict(b) }

// noMarginFeats preserves the wrapped predictor's feature fast path.
type noMarginFeats struct {
	noMargin
	fp FeaturePredictor
}

func (n noMarginFeats) PredictFeats(x [profile.FeatureCount]float64) sim.Time {
	return n.fp.PredictFeats(x)
}

func (n noMarginFeats) PredictSafeFeats(x [profile.FeatureCount]float64) sim.Time {
	return n.fp.PredictFeats(x)
}

// ChunkBudget implements GET_PREFILL_BUDGET from Algorithm 1: the largest
// prefill chunk (up to maxChunk) that keeps the predicted iteration latency
// within budget, given the decode side of the batch. It returns 0 when even
// a minimal chunk cannot fit.
//
// The latency surface is monotone in chunk size, so a binary search over
// [0, maxChunk] suffices; with tree predictors the surface is piecewise
// constant, and the search still converges to a safe (conservative) value
// because PredictSafe is non-decreasing along the probed path.
//
//qoserve:hotpath
func ChunkBudget(p SafePredictor, decodeCtx []int, prefillCtx int, budget sim.Time, maxChunk int) int {
	if maxChunk <= 0 || budget <= 0 {
		return 0
	}
	if fp, ok := p.(FeaturePredictor); ok {
		return chunkBudgetFeats(fp, DecodeFeats(decodeCtx), prefillCtx, budget, maxChunk)
	}
	shapeFor := func(chunk int) model.BatchShape {
		b := model.BatchShape{DecodeCtx: decodeCtx}
		if chunk > 0 {
			b.Prefill = []model.ChunkShape{{Tokens: chunk, CtxStart: prefillCtx}}
		}
		return b
	}
	if p.PredictSafe(shapeFor(maxChunk)) <= budget {
		return maxChunk
	}
	lo, hi := 0, maxChunk // invariant: lo fits, hi doesn't
	if p.PredictSafe(shapeFor(0)) > budget {
		return 0
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if p.PredictSafe(shapeFor(mid)) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// DecodeFeats builds the decode-side feature vector shared by every probe
// of one budget search: the chunk fields are zero, matching a decode-only
// batch shape.
//
//qoserve:hotpath
func DecodeFeats(decodeCtx []int) [profile.FeatureCount]float64 {
	var x [profile.FeatureCount]float64
	x[profile.FeatNumDecodes] = float64(len(decodeCtx))
	for _, c := range decodeCtx {
		x[profile.FeatSumDecodeCtx] += float64(c)
		if fc := float64(c); fc > x[profile.FeatMaxDecodeCtx] {
			x[profile.FeatMaxDecodeCtx] = fc
		}
	}
	return x
}

// ChunkBudgetFeats is ChunkBudget for callers that already hold the
// decode-side feature vector (see DecodeFeats); the search itself never
// allocates.
//
//qoserve:hotpath
func ChunkBudgetFeats(p FeaturePredictor, decodeFeats [profile.FeatureCount]float64, prefillCtx int, budget sim.Time, maxChunk int) int {
	if maxChunk <= 0 || budget <= 0 {
		return 0
	}
	return chunkBudgetFeats(p, decodeFeats, prefillCtx, budget, maxChunk)
}

// chunkBudgetFeats runs the binary search over the feature vector. The
// probed vectors are identical to what Features would extract from the
// equivalent one-chunk batch shape, so the result matches the shape-based
// path bit for bit.
//
//qoserve:hotpath
func chunkBudgetFeats(p FeaturePredictor, x [profile.FeatureCount]float64, prefillCtx int, budget sim.Time, maxChunk int) int {
	probe := func(chunk int) sim.Time {
		if chunk > 0 {
			x[profile.FeatChunkTokens] = float64(chunk)
			x[profile.FeatPrefillCtx] = float64(prefillCtx)
		} else {
			x[profile.FeatChunkTokens] = 0
			x[profile.FeatPrefillCtx] = 0
		}
		return p.PredictSafeFeats(x)
	}
	if probe(maxChunk) <= budget {
		return maxChunk
	}
	lo, hi := 0, maxChunk // invariant: lo fits, hi doesn't
	if probe(0) > budget {
		return 0
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if probe(mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
