package distance

import (
	"sync"
	"time"

	"repro/internal/provenance"
)

// BatchCandidate is one candidate summary of a shared original expression,
// as scored by DistanceBatch: the candidate expression pc, the cumulative
// mapping h with pc = h(p0), and its inverse view. Candidates of one
// summarization step share every group except the one the probed merge
// creates; when their Groups share member-slice identity for the common
// groups (as core's batch scorer arranges), DistanceBatch reuses the
// φ-combined truth of each shared group across all candidates of a
// valuation instead of recomputing it per candidate.
type BatchCandidate struct {
	Expr       provenance.Expression
	Cumulative provenance.Mapping
	Groups     provenance.Groups
}

// DistanceBatch computes the distance of Definition 3.2.2 for every
// candidate in one valuation-major sweep: the outer loop runs over the
// valuation class (or over one shared Monte-Carlo sample set) and the
// inner loop over candidates, so the per-valuation work that does not
// depend on the candidate — the original expression's evaluation and the
// φ-combined truth of every group the candidates share — is computed once
// per valuation instead of once per (candidate, valuation). Candidates
// evaluate by tree walk, so any Expression is accepted; the summarizer
// sends here the expressions DistanceDelta cannot plan (DDP).
//
// In sampling mode (Samples > 0) the valuation draws happen once, up
// front, and every candidate is scored under the same draws (common
// random numbers): candidate comparisons lose the between-candidate
// sampling variance, results are deterministic given the seed, and —
// because the Rand is only touched before any candidate work starts — the
// candidate sweep is safe to fan out across Parallelism goroutines.
//
// Per-candidate sums are accumulated in valuation order regardless of
// Parallelism, so the returned distances are bit-identical to a
// sequential sweep, and to per-candidate Distance calls in enumeration
// mode.
func (e *Estimator) DistanceBatch(p0 provenance.Expression, cands []BatchCandidate) []float64 {
	t0 := time.Now()
	defer func() {
		e.stats.batchCalls.Add(1)
		e.stats.batchCandidates.Add(uint64(len(cands)))
		e.stats.batchNanos.Add(int64(time.Since(t0)))
	}()

	out := make([]float64, len(cands))
	if len(cands) == 0 {
		return out
	}
	vals := e.batchValuations()
	if len(vals) == 0 {
		return out
	}
	// Fill the original-expression cache before fanning out so workers
	// only read it.
	for _, v := range vals {
		e.evalOriginal(v, p0)
	}
	workers := e.Parallelism
	if workers > len(cands) {
		workers = len(cands)
	}
	if workers <= 1 {
		e.batchSweep(p0, cands, vals, out, 0, len(cands))
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * len(cands) / workers
			hi := (w + 1) * len(cands) / workers
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				e.batchSweep(p0, cands, vals, out, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	for i, total := range out {
		out[i] = e.normalize(total, len(vals))
	}
	return out
}

// batchValuations returns the sweep's valuation list: the enumerated
// class, or — in sampling mode — one shared sample set drawn up front.
func (e *Estimator) batchValuations() []provenance.Valuation {
	if e.Samples <= 0 {
		return e.Class.Valuations()
	}
	if e.Rand == nil {
		panic("distance: Estimator.Samples > 0 requires Estimator.Rand (see Estimator.Validate)")
	}
	vals := make([]provenance.Valuation, e.Samples)
	for i := range vals {
		vals[i] = e.Class.Sample(e.Rand)
		e.stats.samples.Add(1)
	}
	return vals
}

// batchSweep scores cands[lo:hi] against every valuation by tree walk.
// The valuations split into blocks of up to 64, and each block keeps one
// extended valuation per lane whose φ-memo fills once per block and
// serves every candidate: groups shared across candidates are combined
// once per valuation. Per-candidate sums accumulate in valuation order,
// so the result is bit-identical to ReferenceDistance.
func (e *Estimator) batchSweep(p0 provenance.Expression, cands []BatchCandidate, vals []provenance.Valuation, out []float64, lo, hi int) {
	exts := make([]*memoExtendedValuation, 64)
	for j := range exts {
		exts[j] = &memoExtendedValuation{phi: e.Phi}
	}
	var evals uint64
	for lo64 := 0; lo64 < len(vals); lo64 += 64 {
		block := vals[lo64:min(len(vals), lo64+64)]
		for j, v := range block {
			exts[j].reset(v)
		}
		for ci := lo; ci < hi; ci++ {
			c := cands[ci]
			for j, v := range block {
				exts[j].groups = c.Groups
				orig := e.evalOriginal(v, p0)
				aligned := orig
				if needsAlign(orig, c.Cumulative) {
					aligned = c.Expr.AlignResult(orig, c.Cumulative)
				}
				out[ci] += e.VF.F(v, aligned, c.Expr.Eval(exts[j]))
				evals++
			}
		}
	}
	e.stats.evaluations.Add(evals)
}

// needsAlign reports whether AlignResult can change orig under m.
// AlignResult re-keys a Vector result through the mapping (merged group
// keys are combined), so when no coordinate key is renamed it returns a
// value-identical copy — which the sweep shares instead of rebuilding per
// candidate. A step's candidates usually merge non-group annotations, so
// the whole cohort skips alignment. Non-Vector results are handed to
// AlignResult unconditionally.
func needsAlign(orig provenance.Result, m provenance.Mapping) bool {
	vec, ok := orig.(provenance.Vector)
	if !ok {
		return true
	}
	for k := range vec {
		if k != "" && m.Rename(k) != k {
			return true
		}
	}
	return false
}

// groupKey identifies a group's member slice: equal keys imply the same
// backing array and length, hence the same members. Groups built by
// provenance.GroupsOf (or patched from one base, as core's batch scorer
// does) never alias distinct member sets over one array, so identity is a
// sound memoization key; distinct slices with equal contents merely miss
// the memo and recompute.
type groupKey struct {
	first *provenance.Annotation
	n     int
}

func keyOf(members []provenance.Annotation) groupKey {
	return groupKey{first: &members[0], n: len(members)}
}

// memoExtendedValuation is the batch sweep's v^{h,φ}: semantically
// identical to provenance.ExtendValuation, but the φ combination of each
// group is memoized per valuation and shared across the candidates of the
// sweep. The same instance is reused across candidates with only the
// groups field swapped; reset clears the memo when the base valuation
// changes.
type memoExtendedValuation struct {
	base    provenance.Valuation
	groups  provenance.Groups
	phi     provenance.Combiner
	memo    map[groupKey]bool
	scratch []bool
}

func (m *memoExtendedValuation) reset(base provenance.Valuation) {
	m.base = base
	if m.memo == nil {
		m.memo = make(map[groupKey]bool)
	} else {
		clear(m.memo)
	}
}

// Truth implements provenance.Valuation.
func (m *memoExtendedValuation) Truth(a provenance.Annotation) bool {
	members, ok := m.groups[a]
	if !ok || len(members) == 0 {
		return m.base.Truth(a)
	}
	k := keyOf(members)
	if t, ok := m.memo[k]; ok {
		return t
	}
	if cap(m.scratch) < len(members) {
		m.scratch = make([]bool, len(members))
	}
	truths := m.scratch[:len(members)]
	for i, mm := range members {
		truths[i] = m.base.Truth(mm)
	}
	t := m.phi.Combine(truths)
	m.memo[k] = t
	return t
}

// Name implements provenance.Valuation.
func (m *memoExtendedValuation) Name() string { return m.base.Name() + "^φ" }
