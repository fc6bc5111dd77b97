package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/provenance"
)

// runMovieLens summarizes the seeded MovieLens workload at the given
// worker count. tweak, when non-nil, adjusts the estimator and config
// before the summarizer is built.
func runMovieLens(t *testing.T, workers, maxSteps int, tweak func(*datasets.Workload, *core.Config)) (*datasets.Workload, *core.Summary, core.Config) {
	t.Helper()
	w := movieLens(t)
	cfg := core.Config{
		Policy:      w.Policy,
		Estimator:   w.Estimator(datasets.CancelSingleAnnotation),
		WDist:       0.7,
		WSize:       0.3,
		MaxSteps:    maxSteps,
		Parallelism: workers,
	}
	if tweak != nil {
		tweak(w, &cfg)
	}
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Summarize(w.Prov)
	if err != nil {
		t.Fatal(err)
	}
	return w, sum, cfg
}

// TestMovieLensScoringModesIdentical runs the same seeded MovieLens
// workload through the delta engine at Parallelism 1, 2, 4 and 6 and
// requires byte-identical summaries: same merges, bit-identical scores
// and distances, same rendered expression. Every run must score through
// the delta engine (counters move, no DistanceBatch fallback), and the
// distance of every committed step must equal, bit for bit, the plain
// Def. 3.2.2 loop (Estimator.ReferenceDistance) on the replayed merges.
func TestMovieLensScoringModesIdentical(t *testing.T) {
	var want string
	for _, workers := range []int{1, 2, 4, 6} {
		_, sum, cfg := runMovieLens(t, workers, 6, nil)
		st := cfg.Estimator.Stats()
		if st.DeltaCalls == 0 || st.BatchCalls != 0 {
			t.Fatalf("workers=%d: %d delta calls, %d batch calls; want delta only", workers, st.DeltaCalls, st.BatchCalls)
		}
		if st.DeltaSkips == 0 {
			t.Fatalf("workers=%d: delta engine never short-circuited a truth-stable pair", workers)
		}
		got := mlSummaryKey(t, sum)
		if workers == 1 {
			want = got
			checkReferenceDists(t, sum)
			continue
		}
		if got != want {
			t.Fatalf("workers=%d diverged from the sequential run:\n%s\n--- want ---\n%s", workers, got, want)
		}
	}
}

// checkReferenceDists replays sum's merges on a fresh copy of the
// MovieLens workload and compares each Step.Dist with the reference
// distance over the whole valuation class.
func checkReferenceDists(t *testing.T, sum *core.Summary) {
	t.Helper()
	rw := movieLens(t)
	// Stopping at once (TargetSize = the original size) yields the state
	// after the free Prop. 4.2.1 pre-step, which scores nothing.
	pre, err := core.New(core.Config{
		Policy: rw.Policy, Estimator: rw.Estimator(datasets.CancelSingleAnnotation),
		WDist: 0.7, WSize: 0.3, TargetSize: rw.Prov.Size(),
	})
	if err != nil {
		t.Fatal(err)
	}
	start, err := pre.Summarize(rw.Prov)
	if err != nil {
		t.Fatal(err)
	}
	p0, cur, cum := rw.Prov, start.Expr, start.Mapping
	origAnns := p0.Annotations()
	ref := rw.Estimator(datasets.CancelSingleAnnotation)
	vals := ref.Class.Valuations()
	for k, step := range sum.Steps {
		name := rw.Policy.MergeName(step.Members)
		if name != step.New {
			t.Fatalf("step %d: replay names the merge %s, engine named it %s", k+1, name, step.New)
		}
		h := provenance.MergeMapping(name, step.Members...)
		cur, cum = cur.Apply(h), cum.Compose(h)
		if d := ref.ReferenceDistance(p0, cur, cum, provenance.GroupsOf(origAnns, cum), vals); d != step.Dist {
			t.Fatalf("step %d: Step.Dist %b != reference distance %b", k+1, step.Dist, d)
		}
	}
	if got := cur.String(); got != sum.Expr.String() {
		t.Fatalf("replayed expression diverged:\n%s\n--- engine ---\n%s", got, sum.Expr)
	}
}

// TestMovieLensMergePatchEquivalence is the acceptance test for
// Plan.ApplyMerge: a full seeded MovieLens run with in-place merge
// patching must be byte-identical to the same run with the estimator's
// caches (and so its cached plan) dropped after every committed step,
// which makes every step score on a freshly compiled plan — and the
// patched run must actually patch (MergePatches moves). Some commits may
// still recompile by design: ApplyMerge bails when the patch would be
// unsound or leave the arena more than half dead.
func TestMovieLensMergePatchEquivalence(t *testing.T) {
	_, sum, cfg := runMovieLens(t, 1, 6, nil)
	want := mlSummaryKey(t, sum)
	if cfg.Estimator.Stats().MergePatches == 0 {
		t.Fatal("default run never patched a plan in place")
	}
	for _, workers := range []int{1, 4} {
		_, sum, cfg := runMovieLens(t, workers, 6, func(_ *datasets.Workload, c *core.Config) {
			est := c.Estimator
			c.StepObserver = func(core.StepEvent) { est.ResetCache() }
		})
		if got := mlSummaryKey(t, sum); got != want {
			t.Fatalf("workers=%d: recompile-per-step run diverged from patched run:\n%s\n--- want ---\n%s", workers, got, want)
		}
		if resets := cfg.Estimator.Stats().CacheResets; resets == 0 {
			t.Fatalf("workers=%d: recompile-per-step run never dropped its caches", workers)
		}
	}
	if _, sum, _ := runMovieLens(t, 4, 6, nil); mlSummaryKey(t, sum) != want {
		t.Fatalf("patched parallel run diverged:\n%s\n--- want ---\n%s", mlSummaryKey(t, sum), want)
	}
}

// TestMovieLensSampledParallelIdentical is the sampling half of the
// determinism criterion on a real workload: Samples > 0 with
// Parallelism > 1 must reproduce the sequential run byte-identically
// given the same seed, because each step's sample set is drawn once
// before the candidate fan-out.
func TestMovieLensSampledParallelIdentical(t *testing.T) {
	sampled := func(_ *datasets.Workload, c *core.Config) {
		c.Estimator.Samples = 8
		c.Estimator.Rand = rand.New(rand.NewSource(21))
	}
	_, sum, cfg := runMovieLens(t, 1, 5, sampled)
	want := mlSummaryKey(t, sum)
	if st := cfg.Estimator.Stats(); st.Samples == 0 || st.DeltaCalls == 0 {
		t.Fatalf("sampled run: %d samples, %d delta calls; want both > 0", st.Samples, st.DeltaCalls)
	}
	for _, workers := range []int{2, 6} {
		if _, sum, _ := runMovieLens(t, workers, 5, sampled); mlSummaryKey(t, sum) != want {
			t.Fatalf("workers=%d diverged from sequential sampled run:\n%s\n--- want ---\n%s", workers, mlSummaryKey(t, sum), want)
		}
	}
}
