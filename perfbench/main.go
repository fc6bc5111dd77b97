// Command perfbench is the repository's benchmark. It drives PROX from
// outside, through public entry points only, on three workloads:
//
//   - ml-cold: from-scratch Algorithm 1 on MovieLens at scale 2 (the
//     delta engine and the blocked kernel carry the time);
//   - ddp-cold: from-scratch Algorithm 1 on DDP at scale 2 (unplannable,
//     scored through DistanceBatch; the delta engine is bypassed);
//   - serve-mixed: a prox-server child process under an open-loop mixed
//     traffic ladder (HTTP, auth, admission, lanes, summary cache,
//     ingest, WAL fsync and warm-start Extend carry the time).
//
// Usage (from the repository root, after building; see run.sh):
//
//	perfbench --workload ml-cold --seed 1 --seconds 36 --trace 0 \
//	          --server .bench_build/prox-server --out .bench_build
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer
// metrics of a traced run, and the spans are written under --out. Every
// output is checked; any failed check is counted, printed to standard
// error, and makes the command exit 1. README.md lists which layer
// metric should move which end-to-end metric on which workload.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	server   string
	outDir   string
	rec      *Recorder // nil unless tracing
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's counts, metrics and human-readable notes.
type report struct {
	attempted, failed int
	errs              []string
	notes             []string
	e2eM, layerM      map[string]metric
}

func newReport() *report {
	return &report{e2eM: map[string]metric{}, layerM: map[string]metric{}}
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// e2e records an end-to-end metric; how says how it was measured (its
// sample count, for percentiles).
func (r *report) e2e(name string, v float64, unit, how string) {
	r.e2eM[name] = metric{v, unit}
	r.note("%-26s %12.4f %-5s %s", name, v, unit, how)
}

func (r *report) layer(name string, v float64, unit string) {
	r.layerM[name] = metric{v, unit}
}

func main() {
	var o opts
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "ml-cold | ddp-cold | serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.Float64Var(&seconds, "seconds", 36, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&o.server, "server", "", "prox-server binary (serve-mixed)")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for spans and server scratch data")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if o.trace {
		o.rec = &Recorder{}
	}

	var rep *report
	var err error
	if spec, ok := batchSpecs[o.workload]; ok {
		rep, err = runBatch(o.workload, spec, o)
	} else if o.workload == "serve-mixed" {
		rep, err = runServe(o)
	} else {
		err = fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		if rep != nil {
			for _, e := range rep.errs {
				fmt.Fprintln(os.Stderr, "FAIL:", e)
			}
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(finish(rep, o))
}

// finish prints the notes, the failures and the result line, writes the
// spans of a traced run, and returns the exit code.
func finish(rep *report, o opts) int {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	if rep.attempted > 0 {
		fmt.Printf("%-26s %12.4f %-5s %d failed of %d attempted\n", "fail_frac",
			float64(rep.failed)/float64(rep.attempted), "ratio", rep.failed, rep.attempted)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "FAIL:", e)
	}
	if o.rec != nil {
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := o.rec.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2eM,
	}
	if o.trace {
		// Every per-layer metric is printed; a layer that takes no part
		// in the workload reads 0.
		res.Metrics = map[string]metric{}
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{rep.layerM[name].Value, unit}
		}
	}
	for name, m := range rep.e2eM {
		if e2eUnits[name] != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s (%s) is not declared\n", name, m.Unit)
			return 1
		}
	}
	// Every workload reports every end-to-end metric.
	for name := range e2eUnits {
		if _, ok := rep.e2eM[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", o.workload, name)
			return 1
		}
	}
	for name, m := range rep.layerM {
		if layerUnits[name] != m.Unit {
			fmt.Fprintf(os.Stderr, "perfbench: per-layer metric %s (%s) is not declared\n", name, m.Unit)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// e2eUnits and layerUnits are the metrics BENCHMARK.json declares, with
// their units; a test keeps the two in step.
var e2eUnits = map[string]string{
	"setup_s":      "s",
	"summarize_ms": "ms",
	"peak_rss_mb":  "MB",
}

var layerUnits = map[string]string{
	"core.steps":                       "count",
	"core.candidates":                  "count",
	"core.candidate_ms":                "ms",
	"core.other_ms":                    "ms",
	"core.probe_overhead_ms":           "ms",
	"core.step_p50_ms":                 "ms",
	"core.step_max_ms":                 "ms",
	"distance.delta_ms":                "ms",
	"distance.delta_candidates":        "count",
	"distance.delta_skip_ratio":        "ratio",
	"distance.subtree_evals":           "count",
	"distance.batch_ms":                "ms",
	"distance.merge_patch_ratio":       "ratio",
	"provenance.compile_us":            "us",
	"provenance.evalblock_ns_per_lane": "ns",
	"runtime.alloc_mb":                 "MB",
	"runtime.mallocs":                  "count",
	"runtime.gc_cycles":                "count",
	"datasets.gen_ms":                  "ms",
	"server.http_p50_ms.summarize":     "ms",
	"server.http_p50_ms.ingest":        "ms",
	"server.http_p50_ms.extend":        "ms",
	"server.http_p50_ms.jobs":          "ms",
	"server.outside_core_ms":           "ms",
	"jobs.queue_wait_ms.interactive":   "ms",
	"jobs.queue_wait_ms.bulk":          "ms",
	"jobs.queue_depth_max":             "count",
	"summarycache.repeat_hit_ratio":    "ratio",
	"summarycache.warm_hits":           "count",
	"store.fsync_p50_ms":               "ms",
	"store.fsyncs_per_request":         "count",
	"store.bytes_per_request":          "B",
	"stream.plan_patch_ratio":          "ratio",
	"tenant.rejected.rate-limit":       "count",
	"tenant.rejected.quota-jobs":       "count",
	"tenant.rejected.quota-sessions":   "count",
	"tenant.rejected.cost":             "count",
	"tenant.rejected.queue-full":       "count",
	"loadgen.lateness_p90_ms":          "ms",
	"self.summarize_ms":                "ms",
	"self.step_ms":                     "ms",
	"self.distance_ms":                 "ms",
	"self.request_ms":                  "ms",
	"self.http_ms":                     "ms",
	"self.job_run_ms":                  "ms",
	"self.merge_step_ms":               "ms",
	"self.checkpoint_ms":               "ms",
	"trace.overhead_pct":               "%",
}

// golden holds the combined merge-trace hash of each batch workload's
// instances for the seeds it was recorded on (`--seconds 0` prints it).
//
//go:embed golden.json
var goldenJSON []byte

// checkGolden compares the run's combined merge-trace hash with the one
// recorded for this workload and seed, when one was recorded.
func checkGolden(rep *report, workload string, seed int64, insts []*batchInstance) error {
	h := sha256.New()
	for _, inst := range insts {
		if inst.hash == "" {
			return nil // that instance failed; its failure is already counted
		}
		fmt.Fprintf(h, "%s\n", inst.hash)
	}
	got := hex.EncodeToString(h.Sum(nil))[:16]
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		return fmt.Errorf("golden.json: %v", err)
	}
	want, ok := golden[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		rep.note("merge-trace hash %s (no recorded hash for seed %d)", got, seed)
		return nil
	}
	if got != want {
		return fmt.Errorf("merge-trace hash %s, recorded %s for %s seed %d", got, want, workload, seed)
	}
	rep.note("merge-trace hash %s matches the recorded one", got)
	return nil
}
