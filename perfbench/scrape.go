package main

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Sample is one series of a /metrics scrape.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is one parsed Prometheus text exposition.
type Scrape []Sample

// scrape fetches and parses p's /metrics.
func scrape(ctx context.Context, hc *http.Client, p *Proc) (Scrape, error) {
	code, body, err := getStatus(ctx, hc, p.URL()+"/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.Name, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", p.Name, code)
	}
	return parseExposition(string(body))
}

// parseExposition parses the text format: `name{k="v",...} value` lines,
// skipping comments. Label values never contain escaped quotes or commas in
// ecfrmd's metrics, which keeps this parser small.
func parseExposition(text string) (Scrape, error) {
	var out Scrape
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s := Sample{Name: line[:sp], Value: v, Labels: map[string]string{}}
		if i := strings.IndexByte(s.Name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.Name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.Labels[k] = strings.Trim(val, `"`)
				}
			}
			s.Name = s.Name[:i]
		}
		out = append(out, s)
	}
	return out, nil
}

// matches reports whether s carries every label pair in kv (k1, v1, k2, v2…).
func (s Sample) matches(kv []string) bool {
	for i := 0; i+1 < len(kv); i += 2 {
		if s.Labels[kv[i]] != kv[i+1] {
			return false
		}
	}
	return true
}

// sum adds every series of name carrying the label pairs kv.
func (sc Scrape) sum(name string, kv ...string) float64 {
	t := 0.0
	for _, s := range sc {
		if s.Name == name && s.matches(kv) {
			t += s.Value
		}
	}
	return t
}

// get returns the first series of name carrying the label pairs kv.
func (sc Scrape) get(name string, kv ...string) (float64, bool) {
	for _, s := range sc {
		if s.Name == name && s.matches(kv) {
			return s.Value, true
		}
	}
	return 0, false
}

// Scrapes holds one scrape per process, keyed by process name.
type Scrapes map[string]Scrape

// scrapeAll scrapes every running process of s.
func scrapeAll(ctx context.Context, s *SUT) (Scrapes, error) {
	hc := &http.Client{Timeout: 5 * time.Second}
	out := Scrapes{}
	for _, p := range s.Running() {
		sc, err := scrape(ctx, hc, p)
		if err != nil {
			return nil, err
		}
		out[p.Name] = sc
	}
	return out, nil
}

// delta returns after − before of name (summed over series matching kv and
// over every process present in both scrapes).
func delta(before, after Scrapes, name string, kv ...string) float64 {
	d := 0.0
	for proc, a := range after {
		if b, ok := before[proc]; ok {
			d += a.sum(name, kv...) - b.sum(name, kv...)
		}
	}
	return d
}

// histMean returns the mean of a histogram's observations between two
// scrapes, with the observation count: (Δ_sum / Δ_count, Δ_count).
func histMean(before, after Scrapes, name string, kv ...string) (float64, int) {
	n := delta(before, after, name+"_count", kv...)
	if n <= 0 {
		return 0, 0
	}
	return delta(before, after, name+"_sum", kv...) / n, int(n)
}
