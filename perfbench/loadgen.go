package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is one kind of request in the serve mix.
type opKind int

const (
	opFresh  opKind = iota // /api/summarize with parameters never used before
	opRepeat               // /api/summarize repeating an earlier fresh request
	opIngest               // /api/ingest of one tensor from the session's pool
	opExtend               // /api/extend warm-started from version 1
	opJob                  // /api/jobs (bulk lane), fresh parameters
)

var opNames = [...]string{"summarize-fresh", "summarize-repeat", "ingest", "extend", "job"}

func (k opKind) String() string { return opNames[k] }

// mix is the share of each kind in the arrivals: summarize 45% (half
// fresh, half repeat), ingest 25%, extend 15%, jobs 15%.
var mix = [...]float64{opFresh: 0.225, opRepeat: 0.225, opIngest: 0.25, opExtend: 0.15, opJob: 0.15}

// rung is one fixed offered rate of the ladder.
type rung struct {
	rate float64       // arrivals per second
	dur  time.Duration // how long the rate is offered
}

// arrival is one scheduled request. Everything about it is drawn from
// the seed when the schedule is built; only the answer depends on the
// server.
type arrival struct {
	due    time.Duration // offset from the start of the ladder
	rung   int
	kind   opKind
	tenant int
	stream bool    // the tenant's streaming session, else its static one
	wDist  float64 // fresh parameters (unique with probability 1)
	steps  int
	pool   int // ingest: which of the session's pool tensors
	of     int // repeat: index of the fresh arrival it repeats (-1-w: warm-up w)
}

// freshSteps is the step budget of every fresh summarize; fresh
// summarizes go to static sessions only.
const freshSteps = 3

// repeatLag is how long before a repeat its original must have been
// due, so that the original has normally completed and the repeat finds
// it in the summary cache rather than coalescing onto the running job.
const repeatLag = 2 * time.Second

// schedule draws the open-loop Poisson arrivals of the whole ladder
// from the seed. warm is the number of warm-up fresh requests (on static
// sessions) that early repeats may refer to.
func schedule(seed int64, ladder []rung, tenants, warm, pool int) []arrival {
	r := rand.New(rand.NewSource(seed))
	var out []arrival
	var base time.Duration
	var freshStatic []int // indexes of fresh arrivals (all on static sessions)
	var perKind [len(opNames)]int
	for ri, rg := range ladder {
		t := base
		for {
			t += time.Duration(r.ExpFloat64() / rg.rate * float64(time.Second))
			if t >= base+rg.dur {
				break
			}
			a := arrival{due: t, rung: ri, kind: pickKind(r.Float64()), tenant: r.Intn(tenants), of: -1}
			a.wDist = 0.05 + 0.9*r.Float64()
			// Step budgets cycle through 1–4 per kind rather than being
			// drawn, so every run has the same mix of cheap and costly
			// runs and its medians do not move with the draw.
			a.steps = 1 + perKind[a.kind]%4
			perKind[a.kind]++
			switch a.kind {
			case opFresh:
				// Fresh summarizes all cost the same: their median is the
				// gated latency, and a median over a mix of 1- to 4-step
				// runs on static and growing sessions falls where the
				// mix is thin and moved 13% over ten seeds.
				a.steps = freshSteps
			case opIngest, opExtend:
				a.stream = true
				a.pool = r.Intn(pool)
			case opRepeat:
				// Choose uniformly among warm-up requests and fresh static
				// requests due at least repeatLag earlier.
				n := 0
				for n < len(freshStatic) && out[freshStatic[n]].due <= t-repeatLag {
					n++
				}
				k := r.Intn(warm + n)
				if k < warm {
					a.of = -1 - k
				} else {
					a.of = freshStatic[k-warm]
				}
			}
			if a.kind == opFresh {
				freshStatic = append(freshStatic, len(out))
			}
			out = append(out, a)
		}
		base += rg.dur
	}
	return out
}

func pickKind(u float64) opKind {
	for k, share := range mix {
		if u < share {
			return opKind(k)
		}
		u -= share
	}
	return opJob
}

// outcome is what the generator observed for one arrival.
type outcome struct {
	sent, done time.Time
	status     int
	err        error
	body       []byte
	cache      string // X-Prox-Cache
	trace      string // X-Prox-Trace
}

// request is one HTTP call an arrival turns into.
type request struct {
	method, path string
	key          string
	body         []byte
}

// runOpenLoop sends every arrival at its due time over at most conns
// connections. A request that finds every connection busy waits for
// one; its latency still counts from the due time, so a stall shows in
// the requests behind it. It returns when every request has finished,
// with the instant the schedule's offsets count from.
func runOpenLoop(client *http.Client, base string, arrivals []arrival, conns int, build func(i int) request) ([]outcome, time.Time) {
	out := make([]outcome, len(arrivals))
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				time.Sleep(time.Until(start.Add(arrivals[i].due)))
				out[i] = do(client, base, build(i))
			}
		}()
	}
	wg.Wait()
	return out, start
}

// do performs one request and reads its whole body; the client's
// timeout bounds it.
func do(client *http.Client, base string, rq request) outcome {
	o := outcome{sent: time.Now()}
	req, err := http.NewRequest(rq.method, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	if rq.key != "" {
		req.Header.Set("Authorization", "Bearer "+rq.key)
	}
	if rq.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return o
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Prox-Cache")
	o.trace = resp.Header.Get("X-Prox-Trace")
	return o
}
