package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/distance"
	"repro/internal/provenance"
)

// batchSpec is one cold Algorithm 1 workload. A run draws `datasets`
// instances from the seed and summarizes them round-robin, each at
// least once: call time varies by about ±30% with the instance, and by
// ±15% from one call to the next on a shared machine, so a run reports
// the median over many short calls on many instances to stay steady
// across seeds. Scale 2 keeps a call at 0.15–0.35 s; at scale 4 a call
// took 2–4 s, a run held a dozen of them, and the median spread 21% over
// ten seeds.
type batchSpec struct {
	datasets int
	maxSteps int
	gen      func(r *rand.Rand) *datasets.Workload
}

var batchSpecs = map[string]batchSpec{
	// MovieLens at scale 2: 48 users, 16 movies (~255 occurrences).
	"ml-cold": {datasets: 64, maxSteps: 20, gen: func(r *rand.Rand) *datasets.Workload {
		cfg := datasets.DefaultMovieLensConfig()
		cfg.Users *= 2
		cfg.Movies *= 2
		return datasets.MovieLens(cfg, r)
	}},
	// DDP at scale 2: 24 executions (~175 occurrences).
	"ddp-cold": {datasets: 64, maxSteps: 10, gen: func(r *rand.Rand) *datasets.Workload {
		cfg := datasets.DefaultDDPConfig()
		cfg.Executions *= 2
		return datasets.DDP(cfg, r)
	}},
}

// batchInstance is one generated dataset with what its calls found.
type batchInstance struct {
	seed       int64
	hash       string // merge-trace hash of the first call
	walls      []float64
	traced     []float64 // walls of calls made with the step observer on
	untraced   []float64
	tracedCall *batchCall // the first call made with tracing on
}

// batchCall is what one set-up-and-Summarize cycle measured.
type batchCall struct {
	setup, gen, compile time.Duration
	evalNsPerLane       float64
	wall                time.Duration
	sum                 *core.Summary
	est                 distance.Stats
	allocBytes, mallocs uint64
	gcCycles            uint32
	stepWalls           []float64
}

// hardStop bounds a run well inside the 180 s a run may take, even on
// a machine several times slower than the reference one.
const hardStop = 150 * time.Second

func runBatch(name string, spec batchSpec, o opts) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(o.seed))
	insts := make([]*batchInstance, spec.datasets)
	for i := range insts {
		insts[i] = &batchInstance{seed: rng.Int63()}
	}

	// A traced run summarizes half the instances twice each, once traced
	// and once not (alternating which goes first), so it takes as long as
	// an untraced run and each instance yields a tracing-overhead pair.
	used, callsPer := insts, 1
	if o.trace {
		used, callsPer = insts[:len(insts)/2], 2
	}
	var calls []*batchCall
	var peakRSS float64 // after the first pass, before later passes can raise it
	start := time.Now()
	deadline := start.Add(o.seconds)
	for i := 0; ; i++ {
		if i == len(used)*callsPer {
			var err error
			if peakRSS, err = maxRSSMB(); err != nil {
				return nil, err
			}
		}
		now := time.Now()
		if (i >= len(used)*callsPer && now.After(deadline)) || now.Sub(start) > hardStop {
			break
		}
		k := i / callsPer % len(used)
		inst := used[k]
		traced := o.trace && i%2 == k%2
		c, err := batchOnce(name, i, inst, spec, traced, o.rec)
		rep.attempted++
		if err != nil {
			rep.fail("%s call %d (instance seed %d): %v", name, i, inst.seed, err)
			continue
		}
		calls = append(calls, c)
		w := ms(c.wall)
		inst.walls = append(inst.walls, w)
		if traced {
			inst.traced = append(inst.traced, w)
			if inst.tracedCall == nil {
				inst.tracedCall = c
			}
		} else {
			inst.untraced = append(inst.untraced, w)
		}
	}
	if len(calls) == 0 {
		return rep, fmt.Errorf("%s: no Summarize call completed", name)
	}
	if peakRSS == 0 { // the hard stop came before the first pass ended
		var err error
		if peakRSS, err = maxRSSMB(); err != nil {
			return nil, err
		}
	}
	if err := checkGolden(rep, name, o.seed, insts); err != nil {
		rep.fail("%v", err)
	}

	var perInst, setups []float64
	for _, inst := range insts {
		if len(inst.walls) > 0 {
			perInst = append(perInst, median(inst.walls))
		}
	}
	for _, c := range calls {
		setups = append(setups, c.setup.Seconds())
	}
	rep.note("%d calls over %d of %d instances in %.1f s", len(calls), len(perInst), len(insts), time.Since(start).Seconds())
	rep.e2e("summarize_ms", median(perInst), "ms", fmt.Sprintf("median over %d instances of each one's median call", len(perInst)))
	rep.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	// Peak RSS is read once every instance has been summarized once: a
	// faster machine makes more calls in a run, and each further call is
	// one more chance for the collector to run late and raise the peak.
	rep.e2e("peak_rss_mb", peakRSS, "MB", fmt.Sprintf("this process, over the first %d calls", len(used)*callsPer))

	if o.trace {
		batchLayers(rep, insts, o.rec)
	}
	return rep, nil
}

// maxRSSMB is the peak resident set size of this process so far.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// batchOnce sets an instance up from scratch and summarizes it once,
// then checks the summary.
func batchOnce(name string, idx int, inst *batchInstance, spec batchSpec, traced bool, rec *Recorder) (*batchCall, error) {
	c := &batchCall{}
	t0 := time.Now()
	w := spec.gen(rand.New(rand.NewSource(inst.seed)))
	c.gen = time.Since(t0)
	est := w.Estimator(datasets.CancelSingleAnnotation)
	var ar *provenance.Arena
	if agg, ok := w.Prov.(*provenance.Agg); ok {
		t1 := time.Now()
		ar = provenance.CompileArena(agg)
		c.compile = time.Since(t1)
	}
	c.setup = time.Since(t0)
	if traced && ar != nil && ar.Blockable() {
		c.evalNsPerLane = evalBlockNsPerLane(ar, est)
	}

	cfg := core.Config{
		Policy:      w.Policy,
		Estimator:   est,
		WDist:       0.5,
		WSize:       0.5,
		MaxSteps:    spec.maxSteps,
		Parallelism: 1,
	}
	type stepMark struct {
		elapsed time.Duration
		est     time.Duration
	}
	var marks []stepMark
	if traced {
		cfg.StepObserver = func(ev core.StepEvent) {
			marks = append(marks, stepMark{ev.Elapsed, estimatorTime(est.Stats())})
		}
	}
	s, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	sum, err := s.Summarize(w.Prov)
	c.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	c.sum = sum
	c.est = est.Stats()
	c.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	c.mallocs = m1.Mallocs - m0.Mallocs
	c.gcCycles = m1.NumGC - m0.NumGC

	if traced {
		// A step's distance span is the estimator time the step used,
		// placed at the step's start: the estimator reports totals, not
		// intervals.
		run := fmt.Sprintf("%s/call%d", name, idx)
		root := rec.Add(run, "summarize", 0, start, start.Add(c.wall))
		prev, prevEst := time.Duration(0), time.Duration(0)
		for _, mk := range marks {
			s0, s1 := start.Add(prev), start.Add(mk.elapsed)
			step := rec.Add(run, "step", root, s0, s1)
			rec.Add(run, "distance", step, s0, s0.Add(mk.est-prevEst))
			c.stepWalls = append(c.stepWalls, ms(mk.elapsed-prev))
			prev, prevEst = mk.elapsed, mk.est
		}
	}

	if err := checkSummary(w, sum); err != nil {
		return nil, err
	}
	h := traceHash(sum)
	if inst.hash == "" {
		inst.hash = h
	} else if h != inst.hash {
		return nil, fmt.Errorf("merge trace %s differs from the instance's first run %s", h, inst.hash)
	}
	return c, nil
}

// estimatorTime is the wall time the estimator spent scoring, over all
// three of its entry points.
func estimatorTime(st distance.Stats) time.Duration {
	return st.DeltaTime + st.BatchTime + st.DistanceTime
}

// checkSummary recomputes the final distance through the plain
// single-candidate estimator and requires it bit for bit, and requires
// the summary expression to be the mapping applied to the original.
func checkSummary(w *datasets.Workload, sum *core.Summary) error {
	ref := w.Estimator(datasets.CancelSingleAnnotation)
	d := ref.Distance(w.Prov, sum.Expr, sum.Mapping, sum.Groups)
	if math.Float64bits(d) != math.Float64bits(sum.Dist) {
		return fmt.Errorf("summary distance %v, but Estimator.Distance recomputes %v", sum.Dist, d)
	}
	if err := sameExpression(sum.Expr, sum.Original.Apply(sum.Mapping), ref.Class.Valuations()); err != nil {
		return fmt.Errorf("summary expression is not Mapping(Original): %v", err)
	}
	if len(sum.Steps) == 0 {
		return fmt.Errorf("summary made no merge step")
	}
	return nil
}

// sameExpression compares two expressions: by canonical fingerprint
// for aggregated expressions, and otherwise — DDP renders commutative
// products in no fixed order — by size and by their results under
// every valuation of the class and the all-true valuation.
func sameExpression(a, b provenance.Expression, vals []provenance.Valuation) error {
	if _, ok := a.(*provenance.Agg); ok {
		if provenance.Fingerprint(a) != provenance.Fingerprint(b) {
			return fmt.Errorf("fingerprints differ:\n got  %s\n want %s", a, b)
		}
		return nil
	}
	if a.Size() != b.Size() {
		return fmt.Errorf("size %d, want %d", a.Size(), b.Size())
	}
	for _, v := range append(append([]provenance.Valuation(nil), vals...), provenance.AllTrue) {
		if ra, rb := fmt.Sprint(a.Eval(v)), fmt.Sprint(b.Eval(v)); ra != rb {
			return fmt.Errorf("under %s: %s, want %s", v.Name(), ra, rb)
		}
	}
	return nil
}

// traceHash digests the merge trace: members, new names, and the exact
// bits of every score and distance, plus the final distance and stop
// reason.
func traceHash(sum *core.Summary) string {
	h := sha256.New()
	f := func(x float64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	for _, st := range sum.Steps {
		for _, m := range st.Members {
			fmt.Fprintf(h, "%s,", m)
		}
		fmt.Fprintf(h, "->%s|%d|", st.New, st.Size)
		f(st.Score)
		f(st.Dist)
	}
	f(sum.Dist)
	fmt.Fprintf(h, "|%s", sum.StopReason)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// evalBlockNsPerLane times Arena.EvalBlock over the estimator's whole
// valuation class, 64 lanes per block, and returns ns per lane.
func evalBlockNsPerLane(ar *provenance.Arena, est *distance.Estimator) float64 {
	vals := est.Class.Valuations()
	anns := ar.Annotations()
	var blocks []*provenance.TruthBlock
	for lo := 0; lo < len(vals); lo += 64 {
		hi := min(lo+64, len(vals))
		tb := provenance.NewTruthBlock()
		tb.Reset(len(anns), hi-lo)
		for id, a := range anns {
			var word uint64
			for j, v := range vals[lo:hi] {
				if v.Truth(a) {
					word |= 1 << uint(j)
				}
			}
			tb.SetWord(int32(id), word)
		}
		blocks = append(blocks, tb)
	}
	scratch := provenance.NewBlockScratch()
	out := make([]provenance.Vector, 64)
	const reps = 20
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, tb := range blocks {
			ar.EvalBlock(tb, scratch, out)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*len(vals))
}

// batchLayers reports the per-layer metrics of a traced batch run. Counts
// come from each instance's first traced call, so they repeat exactly
// for a seed; times are medians over those calls.
func batchLayers(rep *report, insts []*batchInstance, rec *Recorder) {
	var first []*batchCall
	for _, inst := range insts {
		if inst.tracedCall != nil {
			first = append(first, inst.tracedCall)
		}
	}
	perCall := func(f func(c *batchCall) float64) []float64 {
		xs := make([]float64, len(first))
		for i, c := range first {
			xs[i] = f(c)
		}
		return xs
	}
	var steps []float64
	for _, c := range first {
		steps = append(steps, c.stepWalls...)
	}
	var skips, fulls, patches, recompiles float64
	for _, c := range first {
		skips += float64(c.est.DeltaSkips)
		fulls += float64(c.est.DeltaFullEvals)
		patches += float64(c.est.MergePatches)
		recompiles += float64(c.est.MergeRecompiles)
	}

	rep.layer("core.steps", mean(perCall(func(c *batchCall) float64 { return float64(len(c.sum.Steps)) })), "count")
	rep.layer("core.candidates", mean(perCall(func(c *batchCall) float64 { return float64(c.sum.CandidatesEvaluated) })), "count")
	rep.layer("core.candidate_ms", median(perCall(func(c *batchCall) float64 { return ms(c.sum.CandidateTime) })), "ms")
	rep.layer("core.other_ms", median(perCall(func(c *batchCall) float64 { return ms(c.sum.Elapsed - c.sum.CandidateTime) })), "ms")
	rep.layer("core.probe_overhead_ms", median(perCall(func(c *batchCall) float64 { return ms(c.sum.CandidateTime - estimatorTime(c.est)) })), "ms")
	rep.layer("core.step_p50_ms", median(steps), "ms")
	rep.layer("core.step_max_ms", median(perCall(func(c *batchCall) float64 { return sorted(c.stepWalls)[len(c.stepWalls)-1] })), "ms")

	rep.layer("distance.delta_ms", median(perCall(func(c *batchCall) float64 { return ms(c.est.DeltaTime) })), "ms")
	rep.layer("distance.delta_candidates", mean(perCall(func(c *batchCall) float64 { return float64(c.est.DeltaCandidates) })), "count")
	rep.layer("distance.delta_skip_ratio", ratio(skips, skips+fulls), "ratio")
	rep.layer("distance.subtree_evals", mean(perCall(func(c *batchCall) float64 { return float64(c.est.DeltaSubtreeEvals) })), "count")
	rep.layer("distance.batch_ms", median(perCall(func(c *batchCall) float64 { return ms(c.est.BatchTime) })), "ms")
	rep.layer("distance.merge_patch_ratio", ratio(patches, patches+recompiles), "ratio")

	rep.layer("provenance.compile_us", median(perCall(func(c *batchCall) float64 { return float64(c.compile.Microseconds()) })), "us")
	rep.layer("provenance.evalblock_ns_per_lane", median(perCall(func(c *batchCall) float64 { return c.evalNsPerLane })), "ns")

	rep.layer("runtime.alloc_mb", median(perCall(func(c *batchCall) float64 { return float64(c.allocBytes) / (1 << 20) })), "MB")
	rep.layer("runtime.mallocs", median(perCall(func(c *batchCall) float64 { return float64(c.mallocs) })), "count")
	rep.layer("runtime.gc_cycles", median(perCall(func(c *batchCall) float64 { return float64(c.gcCycles) })), "count")

	rep.layer("datasets.gen_ms", median(perCall(func(c *batchCall) float64 { return ms(c.gen) })), "ms")

	self := selfMsByName(rec.Spans())
	rep.layer("self.summarize_ms", self["summarize"], "ms")
	rep.layer("self.step_ms", self["step"], "ms")
	rep.layer("self.distance_ms", self["distance"], "ms")

	// Tracing overhead: each instance's traced calls against its untraced
	// ones.
	var over []float64
	for _, inst := range insts {
		if len(inst.traced) > 0 && len(inst.untraced) > 0 {
			over = append(over, 100*(median(inst.traced)/median(inst.untraced)-1))
		}
	}
	rep.layer("trace.overhead_pct", mean(over), "%")
	rep.note("tracing overhead from %d instances with traced and untraced calls", len(over))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
