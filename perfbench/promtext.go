package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// samples maps a Prometheus series, written `name{labels}` exactly as
// the server exposes it, to its value.
type samples map[string]float64

// scrape reads the server's /metrics.
func scrape(client *http.Client, base string) (samples, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (samples, error) {
	out := samples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 { // OpenMetrics exemplar
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after − before for one series (absent counts as 0).
func delta(before, after samples, series string) float64 {
	return after[series] - before[series]
}

// histQuantile estimates quantile q of the observations a histogram
// received between two scrapes, interpolating linearly inside the
// bucket (the usual histogram_quantile rule). labels selects the series
// (for example `route="/api/summarize"`); empty selects an unlabelled
// histogram. It returns 0 when no observation arrived.
func histQuantile(before, after samples, name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	for series := range after {
		rest, ok := strings.CutPrefix(series, prefix)
		if !ok || !strings.HasPrefix(rest, `le="`) {
			continue
		}
		leText := strings.TrimSuffix(strings.TrimPrefix(rest, `le="`), `"}`)
		le := math.Inf(1)
		if leText != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leText, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, delta(before, after, series)})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total == 0 {
		return 0
	}
	rank := q * total
	lo, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if math.IsInf(b.le, 1) {
				return lo // beyond the last finite bound
			}
			if b.n == prevN {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prevN)/(b.n-prevN)
		}
		lo, prevN = b.le, b.n
	}
	return lo
}
