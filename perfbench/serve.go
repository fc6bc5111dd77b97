package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// The serve-mixed workload: a prox-server child process built from the
// same commit, two tenants with a static and a streaming session each,
// and an open-loop ladder of Poisson rates.
const (
	serveUsers, serveMovies = 48, 16 // 249 occurrences per full selection
	serveTenants            = 2
	// ingestPool bounds each streaming session's growth: ingests draw
	// from this many fixed tensors, so after the pool is used up an
	// ingest folds into an existing tensor and the expression stops
	// growing. Unbounded ingest let a shared session grow until
	// summarize latency climbed fivefold within one run.
	ingestPool = 4
	// warmFresh fresh summarizes per static session run before the
	// ladder, so the first repeats have something to repeat.
	warmFresh = 3
	// serveSetups is how many times a run starts a server; setup_s is
	// their median, and the last one serves the ladder.
	serveSetups = 15
	// corpusSeed fixes the server's MovieLens corpus. The benchmark seed
	// draws the traffic; a corpus drawn from it too would swing summarize
	// cost by ±20% between seeds, with one corpus per run to average over.
	corpusSeed = 1
	// freshP90LimitMs is the latency limit on summarize_fresh_p90_ms
	// that decides max_rate_rps.
	freshP90LimitMs = 500
	// backlogLimitMs: a rung's backlog counts as growing when the
	// requests due in its last quarter were sent, at the median, this
	// much later than due.
	backlogLimitMs = 100
	requestTimeout = 60 * time.Second
)

// serveLadder is the rate ladder, with each rung's share of the run
// time. The nominal rung gets most of the time because the end-to-end
// percentiles come from it alone. The top rung is a short burst well
// past what two cores sustain, so its backlog grows (on a quiet machine
// its two seconds may stay under backlogLimitMs) and max_rate_rps names
// the nominal rung unless the nominal rate itself stops meeting the
// limit. A rung near the capacity would let machine noise flip the
// reported rate.
//
// The nominal rate keeps the machine busy: with sparse requests the
// virtual CPUs idle between them and each run of a virtual machine
// resumes at a different speed. Over six seeds the fresh median spread
// 22% at 12/s and 26% at 18/s, but 4–6% at 24/s.
var serveLadder = []struct{ rate, frac float64 }{{24, 17.0 / 18}, {72, 1.0 / 18}}

const nominalRung = 0

var tenantKeys = [serveTenants]string{"perfbench-tenant-a", "perfbench-tenant-b"}

// server is one running prox-server child.
type server struct {
	cmd      *exec.Cmd
	dir      string
	base     string
	exited   chan struct{}
	sessions [serveTenants][2]string // [tenant][0 static, 1 streaming]
	movies   []string
}

func startServer(o opts, idx int, client *http.Client) (*server, time.Duration, error) {
	dir, err := filepath.Abs(filepath.Join(o.outDir, fmt.Sprintf("serve-%d-%d", os.Getpid(), idx)))
	if err != nil {
		return nil, 0, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		return nil, 0, err
	}
	var reg struct {
		Tenants []map[string]any `json:"tenants"`
	}
	for i, k := range tenantKeys {
		sum := sha256.Sum256([]byte(k))
		reg.Tenants = append(reg.Tenants, map[string]any{
			"id": fmt.Sprintf("t%d", i), "keySha256": hex.EncodeToString(sum[:]),
			"ratePerSec": 10000, "burst": 10000,
		})
	}
	regJSON, _ := json.Marshal(reg)
	if err := os.WriteFile(filepath.Join(dir, "tenants.json"), regJSON, 0o644); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()

	start := time.Now()
	cmd := exec.Command(o.server,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-users", strconv.Itoa(serveUsers), "-movies", strconv.Itoa(serveMovies),
		"-seed", strconv.Itoa(corpusSeed),
		"-workers", "2",
		"-trace-capacity", "2048", // holds every trace of the ladder
		"-bulk-queue", "256", // the top rung's burst must queue, not be refused
		"-tenants", filepath.Join(dir, "tenants.json"),
		"-admission-max-cost", "1e12",
		"-data-dir", filepath.Join(dir, "data"),
		"-log-level", "warn")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting %s: %w", o.server, err)
	}
	s := &server{cmd: cmd, dir: dir, base: fmt.Sprintf("http://127.0.0.1:%d", port), exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is reported through exited
		close(s.exited)
	}()
	if err := s.waitReady(client); err != nil {
		s.stop()
		return nil, 0, err
	}
	for t := range s.sessions {
		for role := range s.sessions[t] {
			var sel struct {
				SessionID string `json:"sessionId"`
				Size      int    `json:"size"`
			}
			if err := s.call(client, "POST", "/api/select", t, map[string]any{}, &sel); err != nil {
				s.stop()
				return nil, 0, err
			}
			if sel.SessionID == "" || sel.Size == 0 {
				s.stop()
				return nil, 0, fmt.Errorf("select returned an empty session")
			}
			s.sessions[t][role] = sel.SessionID
		}
	}
	setup := time.Since(start)
	var movies []struct {
		Title string `json:"title"`
	}
	if err := s.call(client, "GET", "/api/movies", 0, nil, &movies); err != nil || len(movies) == 0 {
		s.stop()
		return nil, 0, fmt.Errorf("listing movies: %v", err)
	}
	for _, m := range movies {
		s.movies = append(s.movies, m.Title)
	}
	return s, setup, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitReady(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("prox-server exited during start-up (see %s)", filepath.Join(s.dir, "server.log"))
		default:
		}
		resp, err := client.Get(s.base + "/metrics")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond) // a start takes about 20 ms; poll finely
	}
	return errors.New("prox-server not ready within 30 s")
}

// stop terminates the server, waits for it to exit, and removes its
// directory. Stopping a stopped server does nothing more.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	_ = os.RemoveAll(s.dir) // scratch data only
}

// call sends one set-up or bookkeeping request as tenant t and decodes
// a 2xx JSON answer into out.
func (s *server) call(client *http.Client, method, path string, t int, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	o := do(client, s.base, request{method: method, path: path, key: tenantKeys[t], body: body})
	if o.err != nil {
		return fmt.Errorf("%s %s: %w", method, path, o.err)
	}
	if o.status/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, o.status, o.body)
	}
	if out != nil {
		if err := json.Unmarshal(o.body, out); err != nil {
			return fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return nil
}

// summaryBody is the part of a summarize, extend or job answer the
// checks read.
type summaryBody struct {
	Size       int     `json:"size"`
	Dist       float64 `json:"dist"`
	StopReason string  `json:"stopReason"`
	Steps      []struct {
		A, B, New string
		Dist      float64
		Size      int
		Score     float64
	} `json:"steps"`
	ElapsedMS float64 `json:"elapsedMs"`
}

type jobBody struct {
	ID          string       `json:"id"`
	State       string       `json:"state"`
	Error       string       `json:"error"`
	SubmittedAt time.Time    `json:"submittedAt"`
	StartedAt   time.Time    `json:"startedAt"`
	Result      *summaryBody `json:"result"`
}

func runServe(o opts) (*report, error) {
	if o.server == "" {
		return nil, errors.New("serve-mixed needs --server")
	}
	rep := newReport()
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	defer client.CloseIdleConnections()

	// Every run starts from fresh servers and empty data directories: a
	// reused server would turn a later run's fresh parameters into cache
	// hits.
	var setups []float64
	var srv *server
	for i := 0; i < serveSetups; i++ {
		s, setup, err := startServer(o, i, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
		if i < serveSetups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	ladder := make([]rung, len(serveLadder))
	for i, r := range serveLadder {
		ladder[i] = rung{rate: r.rate, dur: time.Duration(r.frac * float64(o.seconds))}
	}
	arrivals := schedule(o.seed, ladder, serveTenants, warmFresh, ingestPool)

	// Warm-up: the first version of each streaming session (every extend
	// starts from it) and the static sessions' first fresh requests.
	warm := make([]summaryBody, 0, serveTenants*warmFresh)
	warmOf := make([]int, 0, serveTenants*warmFresh) // tenant of each warm-up request
	for t := 0; t < serveTenants; t++ {
		var sb summaryBody
		// Parameters differ per tenant: a cache hit records no version.
		if err := srv.call(client, "POST", "/api/summarize", t, summarizeReq(srv.sessions[t][1], 0.5+0.001*float64(t), 2), &sb); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	for w := 0; w < warmFresh*serveTenants; w++ {
		t := w % serveTenants
		var sb summaryBody
		if err := srv.call(client, "POST", "/api/summarize", t, summarizeReq(srv.sessions[t][0], warmWDist(w), 2), &sb); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		warm = append(warm, sb)
		warmOf = append(warmOf, t)
	}
	// A repeat runs as the tenant of the request it repeats.
	for i := range arrivals {
		if a := &arrivals[i]; a.kind == opRepeat {
			if a.of < 0 {
				a.tenant = warmOf[-1-a.of]
			} else {
				a.tenant = arrivals[a.of].tenant
			}
		}
	}

	before, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	build := func(i int) request {
		a := arrivals[i]
		sess := srv.sessions[a.tenant][0]
		if a.stream {
			sess = srv.sessions[a.tenant][1]
		}
		rq := request{method: "POST", key: tenantKeys[a.tenant]}
		var body any
		switch a.kind {
		case opFresh:
			rq.path, body = "/api/summarize", summarizeReq(sess, a.wDist, a.steps)
		case opRepeat:
			if a.of < 0 {
				w := -1 - a.of
				rq.path, body = "/api/summarize", summarizeReq(sess, warmWDist(w), 2)
			} else {
				orig := arrivals[a.of]
				rq.path, body = "/api/summarize", summarizeReq(sess, orig.wDist, orig.steps)
			}
		case opIngest:
			rq.path, body = "/api/ingest", srv.ingestReq(sess, a.tenant, a.pool)
		case opExtend:
			req := summarizeReq(sess, a.wDist, a.steps)
			req["fromVersion"] = 1
			rq.path, body = "/api/extend", req
		case opJob:
			rq.path, body = "/api/jobs", summarizeReq(sess, a.wDist, a.steps)
		}
		rq.body, _ = json.Marshal(body) // maps of strings and numbers always encode
		return rq
	}
	outs, t0 := runOpenLoop(client, srv.base, arrivals, conns, build)

	// Span trees are read back before anything else: the server keeps
	// only its most recent traces, and every later request adds one.
	var trees traceReadBack
	if o.trace {
		trees = readBackTraces(client, srv, arrivals, outs, o.rec)
	}
	jobs := waitJobs(client, srv, arrivals, outs, rep)
	after, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	checkServe(client, srv, arrivals, outs, warm, rep)
	srv.stop()
	rss := float64(srv.cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024

	// Latency from the due time, per rung and kind.
	lat := func(rungIdx int, kind opKind) []float64 {
		var xs []float64
		for i, a := range arrivals {
			if a.rung == rungIdx && a.kind == kind && outs[i].status/100 == 2 {
				xs = append(xs, ms(outs[i].done.Sub(t0.Add(a.due))))
			}
		}
		return xs
	}
	// Only the fresh median is gated, as summarize_ms: every gated metric
	// is measured on every workload, and the batch workloads have no
	// routes. The others are printed; over ten seeds on a quiet two-core
	// machine they spread by 8% (extend p50), 11% (repeat and ingest
	// p50), 13% (fresh p90) and 77% (repeat p90).
	pct := func(name string, xs []float64, want float64) Percentile {
		p := supportedPercentile(xs, want)
		rep.note("%-26s %12.4f %-5s p%.1f of %d samples at %g/s", name, p.Value, "ms", p.P, p.N, ladder[nominalRung].rate)
		return p
	}
	rep.e2e("setup_s", median(setups), "s", fmt.Sprintf("median of %d server starts", len(setups)))
	fresh := pct("summarize_fresh_p50_ms", lat(nominalRung, opFresh), 50)
	rep.e2e("summarize_ms", fresh.Value, "ms", "summarize_fresh_p50_ms")
	pct("summarize_fresh_p90_ms", lat(nominalRung, opFresh), 90)
	pct("summarize_repeat_p50_ms", lat(nominalRung, opRepeat), 50)
	pct("summarize_repeat_p90_ms", lat(nominalRung, opRepeat), 90)
	pct("extend_p50_ms", lat(nominalRung, opExtend), 50)
	pct("ingest_p50_ms", lat(nominalRung, opIngest), 50)

	maxRate := 0.0
	for ri, rg := range ladder {
		fresh := supportedPercentile(lat(ri, opFresh), 90)
		var tail []float64
		for i, a := range arrivals {
			if a.rung == ri && a.due >= time.Duration(float64(rg.dur)*0.75)+rungStart(ladder, ri) {
				tail = append(tail, ms(outs[i].sent.Sub(t0.Add(a.due))))
			}
		}
		backlog := median(tail)
		ok := fresh.Value <= freshP90LimitMs && backlog <= backlogLimitMs && rungFailures(arrivals, outs, ri) == 0
		rep.note("rung %d: %4g/s  fresh p%.1f %8.1f ms (n=%d)  last-quarter send lateness p50 %7.1f ms  meets limit: %v",
			ri, rg.rate, fresh.P, fresh.Value, fresh.N, backlog, ok)
		if ok && rg.rate > maxRate {
			maxRate = rg.rate
		}
	}
	rep.note("%-26s %12.4f %-5s highest rung with fresh p90 <= %d ms and no growing backlog", "max_rate_rps", maxRate, "1/s", freshP90LimitMs)
	rep.e2e("peak_rss_mb", rss, "MB", "prox-server")

	if o.trace {
		serveLayers(arrivals, outs, t0, jobs, trees, before, after, rep, o.rec)
	}
	return rep, nil
}

func rungStart(ladder []rung, ri int) time.Duration {
	var t time.Duration
	for _, r := range ladder[:ri] {
		t += r.dur
	}
	return t
}

func rungFailures(arrivals []arrival, outs []outcome, ri int) int {
	n := 0
	for i, a := range arrivals {
		if a.rung == ri && outs[i].status/100 != 2 {
			n++
		}
	}
	return n
}

func summarizeReq(sess string, wDist float64, steps int) map[string]any {
	return map[string]any{"sessionId": sess, "wDist": wDist, "wSize": 1 - wDist, "steps": steps}
}

// warmWDist gives warm-up request w its own parameters, outside the
// range fresh requests draw from.
func warmWDist(w int) float64 { return 0.01 + 0.001*float64(w) }

// ingestReq is pool tensor k of tenant t's streaming session: a new user
// rating an existing movie. Re-ingesting a pool tensor folds into the
// existing one, so the session stops growing once the pool is used up.
func (s *server) ingestReq(sess string, t, k int) map[string]any {
	user := fmt.Sprintf("PB%d_%d", t, k)
	movie := s.movies[(3*t+5*k)%len(s.movies)]
	return map[string]any{
		"sessionId":  sess,
		"expression": fmt.Sprintf("%s * %s (x) (%d,1)@%s", user, movie, 1+k%5, movie),
		"universe": []map[string]any{{
			"ann": user, "table": "users",
			"attrs": map[string]string{"gender": []string{"F", "M"}[k%2], "age": "25-34", "occupation": "writer", "zip": fmt.Sprintf("region%d", k%5)},
		}},
	}
}

// waitJobs polls every accepted bulk job until it is terminal and
// returns the final answers by arrival index.
func waitJobs(client *http.Client, srv *server, arrivals []arrival, outs []outcome, rep *report) map[int]jobBody {
	pending := map[int]string{}
	done := map[int]jobBody{}
	for i, a := range arrivals {
		if a.kind != opJob || outs[i].status/100 != 2 {
			continue
		}
		var jb jobBody
		if err := json.Unmarshal(outs[i].body, &jb); err != nil || jb.ID == "" {
			continue // reported by checkServe
		}
		if jb.State == "done" {
			done[i] = jb
		} else {
			pending[i] = jb.ID
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for len(pending) > 0 && time.Now().Before(deadline) {
		for i, id := range pending {
			var jb jobBody
			if err := srv.call(client, "GET", "/api/jobs/"+id, arrivals[i].tenant, nil, &jb); err != nil {
				rep.fail("job %s: %v", id, err)
				delete(pending, i)
				continue
			}
			switch jb.State {
			case "done":
				if jb.Result == nil {
					rep.fail("job %s is done but carries no summary", id)
				}
				done[i] = jb
				delete(pending, i)
			case "failed", "canceled":
				rep.fail("job %s ended %s: %s", id, jb.State, jb.Error)
				delete(pending, i)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, id := range pending {
		rep.fail("job %s did not finish within 60 s of the ladder's end", id)
	}
	return done
}

// checkServe counts every arrival as attempted and every refused,
// failed or wrong answer as failed.
func checkServe(client *http.Client, srv *server, arrivals []arrival, outs []outcome, warm []summaryBody, rep *report) {
	decoded := make([]*summaryBody, len(arrivals))
	for i, a := range arrivals {
		rep.attempted++
		o := outs[i]
		switch {
		case o.err != nil:
			rep.fail("%s #%d: %v", a.kind, i, o.err)
			continue
		case o.status/100 != 2:
			rep.fail("%s #%d: status %d: %.200s", a.kind, i, o.status, o.body)
			continue
		}
		switch a.kind {
		case opFresh, opRepeat, opExtend:
			var sb summaryBody
			if err := json.Unmarshal(o.body, &sb); err != nil {
				rep.fail("%s #%d: undecodable answer: %v", a.kind, i, err)
				continue
			}
			if a.kind == opFresh && len(sb.Steps) > a.steps || sb.Size <= 0 || sb.StopReason == "" {
				rep.fail("%s #%d: implausible summary (%d steps of %d, size %d, stop %q)", a.kind, i, len(sb.Steps), a.steps, sb.Size, sb.StopReason)
				continue
			}
			decoded[i] = &sb
		case opIngest:
			var ib struct {
				Size         int  `json:"size"`
				AddedTensors int  `json:"addedTensors"`
				PlanPatched  bool `json:"planPatched"`
			}
			if err := json.Unmarshal(o.body, &ib); err != nil || ib.AddedTensors != 1 || ib.Size <= 0 {
				rep.fail("ingest #%d: bad answer (%v): %.200s", i, err, o.body)
			}
		case opJob:
			var jb jobBody
			if err := json.Unmarshal(o.body, &jb); err != nil || jb.ID == "" {
				rep.fail("job #%d: bad answer (%v): %.200s", i, err, o.body)
			}
		}
	}
	// A repeat returns the merge trace of the request it repeats.
	for i, a := range arrivals {
		if a.kind != opRepeat || decoded[i] == nil {
			continue
		}
		var orig *summaryBody
		if a.of < 0 {
			orig = &warm[-1-a.of]
		} else {
			orig = decoded[a.of]
		}
		if orig != nil && !sameTrace(orig, decoded[i]) {
			rep.fail("repeat #%d (cache %q) of #%d: merge trace differs: %+v, repeated %+v", i, outs[i].cache, a.of, *decoded[i], *orig)
		}
	}
	// Version numbers only grow.
	for t := range srv.sessions {
		for _, sess := range srv.sessions[t] {
			var vs struct {
				Versions []struct {
					Version int `json:"version"`
				} `json:"versions"`
			}
			if err := srv.call(client, "GET", "/api/sessions/"+sess+"/versions", t, nil, &vs); err != nil {
				rep.fail("versions of session %s: %v", sess, err)
				continue
			}
			for j := 1; j < len(vs.Versions); j++ {
				if vs.Versions[j].Version <= vs.Versions[j-1].Version {
					rep.fail("session %s: version %d follows version %d", sess, vs.Versions[j].Version, vs.Versions[j-1].Version)
				}
			}
		}
	}
}

// sameTrace reports whether b makes the merges of a. A cache hit
// replays a's trace verbatim; a recomputation (after the entry was
// evicted) makes the same merges under fresh summary-annotation names,
// so the names b introduces are mapped to a's before comparing.
func sameTrace(a, b *summaryBody) bool {
	if len(a.Steps) != len(b.Steps) || a.Size != b.Size || a.Dist != b.Dist {
		return false
	}
	rename := map[string]string{}
	for i, step := range b.Steps {
		if n, ok := rename[step.A]; ok {
			step.A = n
		}
		if n, ok := rename[step.B]; ok {
			step.B = n
		}
		rename[step.New] = a.Steps[i].New
		step.New = a.Steps[i].New
		if step != a.Steps[i] {
			return false
		}
	}
	return true
}
