package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/datasets"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	cfg := datasets.DefaultMovieLensConfig()
	cfg.Users, cfg.Movies = 10, 5
	w := datasets.MovieLens(cfg, rand.New(rand.NewSource(5)))
	s, err := New(w)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return res
}

func TestMoviesEndpoint(t *testing.T) {
	_, ts := testServer(t)
	res, err := http.Get(ts.URL + "/api/movies")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var movies []movieInfo
	if err := json.NewDecoder(res.Body).Decode(&movies); err != nil {
		t.Fatal(err)
	}
	if len(movies) != 5 {
		t.Fatalf("movies = %d", len(movies))
	}
	for _, m := range movies {
		if m.Title == "" || m.Year == "" || m.Genre == "" {
			t.Fatalf("incomplete movie %+v", m)
		}
	}
}

func TestSelectByTitle(t *testing.T) {
	_, ts := testServer(t)
	var sel selectResponse
	res := post(t, ts.URL+"/api/select", selectRequest{Titles: []string{"Movie01"}}, &sel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if sel.SessionID == "" || sel.Size == 0 || sel.Tensors == 0 {
		t.Fatalf("selection = %+v", sel)
	}
	if !strings.Contains(sel.Provenance, "Movie01") {
		t.Fatalf("provenance lacks selected movie: %s", sel.Provenance)
	}
	if strings.Contains(sel.Provenance, "Movie02") {
		t.Fatalf("provenance leaks unselected movie: %s", sel.Provenance)
	}
}

func TestSelectByGenreYear(t *testing.T) {
	s, ts := testServer(t)
	// pick the genre/year of an actual movie
	ms := s.movies()
	var sel selectResponse
	res := post(t, ts.URL+"/api/select", selectRequest{Genres: []string{ms[0].Genre}, Year: ms[0].Year}, &sel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if !strings.Contains(sel.Provenance, ms[0].Title) {
		t.Fatal("selection must include the matching movie")
	}
}

func TestSelectErrors(t *testing.T) {
	_, ts := testServer(t)
	res := post(t, ts.URL+"/api/select", selectRequest{Titles: []string{"NoSuchMovie"}}, nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty selection status = %d", res.StatusCode)
	}
	res = post(t, ts.URL+"/api/select", selectRequest{Agg: "BOGUS"}, nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad agg status = %d", res.StatusCode)
	}
}

func TestSummarizeAndEvaluateFlow(t *testing.T) {
	_, ts := testServer(t)
	var sel selectResponse
	post(t, ts.URL+"/api/select", selectRequest{}, &sel) // select everything

	var sum summarizeResponse
	res := post(t, ts.URL+"/api/summarize", summarizeRequest{
		SessionID: sel.SessionID,
		WDist:     0.5, WSize: 0.5,
		Steps:          4,
		ValuationClass: "annotation",
	}, &sum)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}
	if sum.Size >= sel.Size {
		t.Fatalf("summary size %d must shrink from %d", sum.Size, sel.Size)
	}
	if len(sum.Steps) == 0 {
		t.Fatal("no steps reported")
	}
	if len(sum.Groups) == 0 {
		t.Fatal("no groups reported")
	}
	for _, g := range sum.Groups {
		if len(g.Members) < 2 {
			t.Fatalf("degenerate group %+v", g)
		}
	}

	// evaluate on the original
	var ev evaluateResponse
	res = post(t, ts.URL+"/api/evaluate", evaluateRequest{
		SessionID: sel.SessionID,
		Target:    "original",
	}, &ev)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status = %d", res.StatusCode)
	}
	if len(ev.Results) == 0 || ev.TimeNS < 0 {
		t.Fatalf("evaluate = %+v", ev)
	}

	// evaluate the same valuation on the summary
	var evs evaluateResponse
	res = post(t, ts.URL+"/api/evaluate", evaluateRequest{
		SessionID: sel.SessionID,
		Target:    "summary",
	}, &evs)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summary evaluate status = %d", res.StatusCode)
	}
	// all-true valuation: summary and original must agree after grouping
	// (identical movies unless movie annotations merged; compare totals
	// loosely by checking non-empty)
	if len(evs.Results) == 0 {
		t.Fatal("summary evaluation empty")
	}
}

func TestEvaluateWithFalseAttributes(t *testing.T) {
	_, ts := testServer(t)
	var sel selectResponse
	post(t, ts.URL+"/api/select", selectRequest{}, &sel)

	var all, canceled evaluateResponse
	post(t, ts.URL+"/api/evaluate", evaluateRequest{SessionID: sel.SessionID, Target: "original"}, &all)
	post(t, ts.URL+"/api/evaluate", evaluateRequest{
		SessionID:       sel.SessionID,
		FalseAttributes: []string{"gender=M"},
		Target:          "original",
	}, &canceled)
	// cancelling all male users can only lower MAX ratings
	for movie, v := range canceled.Results {
		if v > all.Results[movie] {
			t.Fatalf("movie %s rating rose after cancelling males: %g > %g", movie, v, all.Results[movie])
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	_, ts := testServer(t)
	res := post(t, ts.URL+"/api/evaluate", evaluateRequest{SessionID: "404"}, nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d", res.StatusCode)
	}
	var sel selectResponse
	post(t, ts.URL+"/api/select", selectRequest{}, &sel)
	res = post(t, ts.URL+"/api/evaluate", evaluateRequest{SessionID: sel.SessionID, Target: "summary"}, nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("summary-before-summarize status = %d", res.StatusCode)
	}
	res = post(t, ts.URL+"/api/evaluate", evaluateRequest{
		SessionID:       sel.SessionID,
		FalseAttributes: []string{"malformed"},
	}, nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed attribute status = %d", res.StatusCode)
	}
}

func TestSummarizeErrors(t *testing.T) {
	_, ts := testServer(t)
	res := post(t, ts.URL+"/api/summarize", summarizeRequest{SessionID: "404"}, nil)
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d", res.StatusCode)
	}
}

func TestStepNavigation(t *testing.T) {
	_, ts := testServer(t)
	var sel selectResponse
	post(t, ts.URL+"/api/select", selectRequest{}, &sel)
	var sum summarizeResponse
	post(t, ts.URL+"/api/summarize", summarizeRequest{
		SessionID: sel.SessionID, WDist: 1, Steps: 3, ValuationClass: "annotation",
	}, &sum)
	if len(sum.Steps) == 0 {
		t.Fatal("no steps to navigate")
	}

	getStep := func(n string) (*stepResponse, int) {
		res, err := http.Get(ts.URL + "/api/step?sessionId=" + sel.SessionID + "&n=" + n)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return nil, res.StatusCode
		}
		var sr stepResponse
		if err := json.NewDecoder(res.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return &sr, res.StatusCode
	}

	// step 0 = original selection
	s0, code := getStep("0")
	if code != http.StatusOK {
		t.Fatalf("step 0 status %d", code)
	}
	if s0.Size != sel.Size || s0.Merged != "" {
		t.Fatalf("step 0 = %+v, want original size %d", s0, sel.Size)
	}
	// final step matches the summary
	last, _ := getStep(strconv.Itoa(len(sum.Steps)))
	if last.Size != sum.Size {
		t.Fatalf("final step size %d != summary size %d", last.Size, sum.Size)
	}
	if last.Merged == "" {
		t.Fatal("final step must report its merge")
	}
	// sizes decrease monotonically along the trace
	prev := s0.Size
	for n := 1; n <= len(sum.Steps); n++ {
		sn, _ := getStep(strconv.Itoa(n))
		if sn.Size > prev {
			t.Fatalf("step %d size %d > previous %d", n, sn.Size, prev)
		}
		prev = sn.Size
	}
	// errors
	if _, code := getStep("99"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range step status %d", code)
	}
	if _, code := getStep("x"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric step status %d", code)
	}
	res, _ := http.Get(ts.URL + "/api/step?sessionId=404&n=0")
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session step status %d", res.StatusCode)
	}
	res.Body.Close()
}

func TestStepBeforeSummarize(t *testing.T) {
	_, ts := testServer(t)
	var sel selectResponse
	post(t, ts.URL+"/api/select", selectRequest{}, &sel)
	res, err := http.Get(ts.URL + "/api/step?sessionId=" + sel.SessionID + "&n=0")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("step-before-summarize status %d", res.StatusCode)
	}
}

func TestCustomProvenance(t *testing.T) {
	_, ts := testServer(t)
	req := customRequest{
		Expression: "U1 (x) (3,1)@MP (+) U2 (x) (5,1)@MP (+) U3 (x) (3,1)@MP",
		Agg:        "MAX",
	}
	req.Universe = []struct {
		Ann   string            `json:"ann"`
		Table string            `json:"table"`
		Attrs map[string]string `json:"attrs"`
	}{
		// The server's MovieLens policy merges users sharing gender / age /
		// occupation / zip; U1 and U3 (the distance-0 pair) share gender.
		{Ann: "U1", Table: "users", Attrs: map[string]string{"gender": "M"}},
		{Ann: "U2", Table: "users", Attrs: map[string]string{"gender": "F"}},
		{Ann: "U3", Table: "users", Attrs: map[string]string{"gender": "M"}},
		{Ann: "MP", Table: "movies", Attrs: map[string]string{"genre": "drama"}},
	}
	var sel selectResponse
	res := post(t, ts.URL+"/api/custom", req, &sel)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("custom status = %d", res.StatusCode)
	}
	if sel.Size != 3 || sel.Tensors != 3 {
		t.Fatalf("custom selection = %+v", sel)
	}

	// summarize the custom provenance and check the Example 3.2.3 merge
	var sum summarizeResponse
	res = post(t, ts.URL+"/api/summarize", summarizeRequest{
		SessionID: sel.SessionID, WDist: 1, Steps: 1, ValuationClass: "annotation",
	}, &sum)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("summarize status = %d", res.StatusCode)
	}
	if len(sum.Steps) != 1 {
		t.Fatalf("steps = %+v", sum.Steps)
	}
	merged := map[string]bool{sum.Steps[0].A: true, sum.Steps[0].B: true}
	if !merged["U1"] || !merged["U3"] {
		t.Fatalf("custom summarize merged (%s,%s), want (U1,U3)", sum.Steps[0].A, sum.Steps[0].B)
	}

	// errors
	res = post(t, ts.URL+"/api/custom", customRequest{Expression: "((("}, nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad expression status = %d", res.StatusCode)
	}
	res = post(t, ts.URL+"/api/custom", customRequest{Expression: "U1 (x) 3", Agg: "NOPE"}, nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad agg status = %d", res.StatusCode)
	}
}

// TestCustomHostileNesting: deeply nested parentheses used to recurse
// the expression parser into a fatal stack overflow. A 6 MB body of
// 3M nested parentheses is refused for its size (413 with the error and
// cause fields), a nesting past the parser's depth cap that fits the
// limit is a parse error (400), and the server keeps serving.
func TestCustomHostileNesting(t *testing.T) {
	_, ts := testServer(t)
	nested := func(depth int) customRequest {
		return customRequest{Expression: strings.Repeat("(", depth) + "U1" + strings.Repeat(")", depth) + " (x) 3"}
	}
	var body map[string]string
	res := post(t, ts.URL+"/api/custom", nested(3_000_000), &body)
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", res.StatusCode)
	}
	if body["cause"] != causeBodyTooLarge || body["error"] == "" {
		t.Fatalf("oversized body answer = %v, want error and cause %q", body, causeBodyTooLarge)
	}
	res = post(t, ts.URL+"/api/custom", nested(maxExprBody/4), nil)
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("deep nesting within the size limit: status = %d, want 400", res.StatusCode)
	}
	res, err := http.Get(ts.URL + "/api/movies")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("server unhealthy after hostile input: status %d", res.StatusCode)
	}
}

func TestUIServed(t *testing.T) {
	_, ts := testServer(t)
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, frag := range []string{"PROX", "Summarize!", "/api/select", "Evaluate assignment!"} {
		if !strings.Contains(body, frag) {
			t.Fatalf("UI missing %q", frag)
		}
	}
	res2, _ := http.Get(ts.URL + "/nope")
	if res2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", res2.StatusCode)
	}
	res2.Body.Close()
}
