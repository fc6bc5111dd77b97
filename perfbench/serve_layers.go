package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"
)

// traceNode is one span of the server's /api/traces/{id} tree.
type traceNode struct {
	Name     string      `json:"name"`
	Start    time.Time   `json:"start"`
	DurUs    int64       `json:"durUs"`
	Children []traceNode `json:"children"`
}

// maxTraceFetches bounds how many server traces a traced run reads
// back after the ladder, newest first.
const maxTraceFetches = 60

// traceReadBack is what the span trees of fresh summarizes showed.
type traceReadBack struct {
	read      int
	interWait []float64 // interactive queue wait: job.enqueue to job.run
}

// readBackTraces records, for the most recent fresh summarizes at the
// nominal rate, a client `request` span and under it the server's span
// tree from /api/traces/{id}. It runs after the ladder, so nothing the
// benchmark traces runs while latency is measured.
func readBackTraces(client *http.Client, srv *server, arrivals []arrival, outs []outcome, rec *Recorder) traceReadBack {
	var tb traceReadBack
	for i := len(arrivals) - 1; i >= 0 && tb.read < maxTraceFetches; i-- {
		a, o := arrivals[i], outs[i]
		if a.kind != opFresh || a.rung != nominalRung || o.status/100 != 2 {
			continue
		}
		var tr struct {
			Roots []traceNode `json:"roots"`
		}
		if err := srv.call(client, "GET", "/api/traces/"+o.trace, a.tenant, nil, &tr); err != nil {
			break // evicted: older ones are gone too
		}
		tb.read++
		root := rec.Add(o.trace, "request", 0, o.sent, o.done)
		var enqueue, run time.Time
		var walk func(n traceNode, parent int)
		walk = func(n traceNode, parent int) {
			id := rec.Add(o.trace, n.Name, parent, n.Start, n.Start.Add(time.Duration(n.DurUs)*time.Microsecond))
			switch n.Name {
			case "job.enqueue":
				enqueue = n.Start
			case "job.run":
				run = n.Start
			}
			for _, c := range n.Children {
				walk(c, id)
			}
		}
		for _, n := range tr.Roots {
			walk(n, root)
		}
		if !enqueue.IsZero() && !run.IsZero() {
			tb.interWait = append(tb.interWait, ms(run.Sub(enqueue)))
		}
	}
	return tb
}

// serveLayers reports the per-layer metrics of a traced serve run: the
// server's own counters and histograms (differences of two /metrics
// scrapes around the ladder), the bulk jobs' recorded times, and the
// span trees read back after the ladder.
func serveLayers(arrivals []arrival, outs []outcome, t0 time.Time, jobs map[int]jobBody, trees traceReadBack,
	before, after samples, rep *report, rec *Recorder) {
	routes := map[string]string{"summarize": "/api/summarize", "ingest": "/api/ingest", "extend": "/api/extend", "jobs": "/api/jobs"}
	for short, route := range routes {
		rep.layer("server.http_p50_ms."+short, 1000*histQuantile(before, after, "prox_http_request_duration_seconds", `route="`+route+`"`, 0.5), "ms")
	}

	var outside, lateness []float64
	var repeats, hits float64
	for i, a := range arrivals {
		o := outs[i]
		if a.rung != nominalRung {
			continue
		}
		lateness = append(lateness, ms(o.sent.Sub(t0.Add(a.due))))
		if o.status/100 != 2 {
			continue
		}
		switch a.kind {
		case opFresh:
			var sb summaryBody
			if json.Unmarshal(o.body, &sb) == nil {
				outside = append(outside, ms(o.done.Sub(o.sent))-sb.ElapsedMS)
			}
		case opRepeat:
			repeats++
			if o.cache == "hit" {
				hits++
			}
		}
	}
	rep.layer("server.outside_core_ms", median(outside), "ms")
	lp := supportedPercentile(lateness, 90)
	rep.layer("loadgen.lateness_p90_ms", lp.Value, "ms")
	rep.note("generator lateness at the nominal rate p%.1f of %d sends: %.2f ms", lp.P, lp.N, lp.Value)

	// Bulk lane: queue wait and the deepest queue, from the jobs' own
	// submitted/started times.
	var bulkWait []float64
	type edge struct {
		at time.Time
		d  int
	}
	var edges []edge
	for _, jb := range jobs {
		if jb.SubmittedAt.IsZero() || jb.StartedAt.IsZero() {
			continue
		}
		bulkWait = append(bulkWait, ms(jb.StartedAt.Sub(jb.SubmittedAt)))
		edges = append(edges, edge{jb.SubmittedAt, 1}, edge{jb.StartedAt, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at.Equal(edges[j].at) {
			return edges[i].d < edges[j].d
		}
		return edges[i].at.Before(edges[j].at)
	})
	depth, maxDepth := 0, 0
	for _, e := range edges {
		depth += e.d
		maxDepth = max(maxDepth, depth)
	}
	rep.layer("jobs.queue_wait_ms.bulk", median(bulkWait), "ms")
	rep.layer("jobs.queue_depth_max", float64(maxDepth), "count")
	rep.layer("jobs.queue_wait_ms.interactive", median(trees.interWait), "ms")

	self := selfMsByName(rec.Spans())
	for name, span := range map[string]string{"request": "request", "http": "http /api/summarize", "job_run": "job.run", "merge_step": "merge-step", "checkpoint": "checkpoint"} {
		rep.layer("self."+name+"_ms", self[span], "ms")
	}
	rep.note("span trees of %d fresh summarizes read back", trees.read)

	rep.layer("summarycache.repeat_hit_ratio", ratio(hits, repeats), "ratio")
	rep.layer("summarycache.warm_hits", delta(before, after, "prox_cache_warm_hits_total"), "count")

	requests := float64(len(arrivals))
	rep.layer("store.fsync_p50_ms", 1000*histQuantile(before, after, "prox_store_fsync_seconds", "", 0.5), "ms")
	rep.layer("store.fsyncs_per_request", delta(before, after, "prox_store_fsyncs_total")/requests, "count")
	rep.layer("store.bytes_per_request", delta(before, after, "prox_store_append_bytes_total")/requests, "B")

	patches := delta(before, after, "prox_stream_plan_patches_total")
	rep.layer("stream.plan_patch_ratio", ratio(patches, patches+delta(before, after, "prox_stream_plan_recompiles_total")), "ratio")

	for _, cause := range []string{"rate-limit", "quota-jobs", "quota-sessions", "cost", "queue-full"} {
		rep.layer("tenant.rejected."+cause, delta(before, after, fmt.Sprintf(`prox_http_rejected_total{cause="%s"}`, cause)), "count")
	}

	// The server traces every request itself, and the benchmark's own
	// tracing (client spans, read-back) happens after the ladder, so a
	// traced serve run measures exactly what an untraced one does.
	rep.layer("trace.overhead_pct", 0, "%")
	rep.note("tracing overhead 0 by construction: all benchmark tracing runs after the ladder")
}
