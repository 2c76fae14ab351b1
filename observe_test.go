package cpq_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	cpq "repro"
)

func buildPair(t *testing.T, opts ...cpq.IndexOption) (*cpq.Index, *cpq.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	mk := func(shift float64) *cpq.Index {
		pts := make([]cpq.Point, 500)
		for i := range pts {
			pts[i] = cpq.Point{X: rng.Float64() + shift, Y: rng.Float64()}
		}
		idx, err := cpq.BuildIndex(pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	p, q := mk(0), mk(0.4)
	t.Cleanup(func() { p.Close(); q.Close() })
	return p, q
}

// TestMetricsEndpointMatchesStats is the acceptance check for the metrics
// exposition path: after one metered query, the /metrics endpoint of
// ObservabilityMux must report live counters equal to the query's final
// Stats snapshot.
func TestMetricsEndpointMatchesStats(t *testing.T) {
	p, q := buildPair(t, cpq.WithNodeCache(256))
	reg := cpq.NewMetrics()
	em := cpq.NewEngineMetrics(reg)
	srv := httptest.NewServer(cpq.ObservabilityMux(reg, false))
	defer srv.Close()

	pairs, stats, err := cpq.KClosestPairs(p, q, 10, cpq.WithMetrics(em))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs", len(pairs))
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := parseSamples(t, string(body))
	want := map[string]float64{
		"cpq_queries_total":           1,
		"cpq_accesses_total":          float64(stats.Accesses()),
		"cpq_node_cache_hits_total":   float64(stats.NodeCacheHits),
		"cpq_node_cache_misses_total": float64(stats.NodeCacheMisses),
		"cpq_node_cache_hit_ratio":    stats.NodeCacheHitRatio(),
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("endpoint is missing %s", name)
			continue
		}
		if g != w {
			t.Errorf("%s = %v on the endpoint, Stats says %v", name, g, w)
		}
	}
	if stats.NodeCacheHits == 0 {
		t.Error("query used no node cache; the cache counters checked nothing")
	}
}

// parseSamples extracts un-labelled samples from a Prometheus text page.
func parseSamples(t *testing.T, page string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestIndexSetTracerAndJSONL checks the public wiring end to end: a JSONL
// tracer attached through WithTracer and Index.SetTracer sees both the
// query span and the index's cache events, every line valid JSON.
func TestIndexSetTracerAndJSONL(t *testing.T) {
	p, q := buildPair(t, cpq.WithNodeCache(256))
	var buf bytes.Buffer
	tr := cpq.NewJSONLTracer(&buf)
	p.SetTracer(tr)
	q.SetTracer(tr)
	if _, _, err := cpq.KClosestPairs(p, q, 5, cpq.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		kinds[e.Kind]++
	}
	for _, want := range []string{"query_start", "query_end", "node_expanded", "cache_miss", "cache_hit"} {
		if kinds[want] == 0 {
			t.Errorf("no %s events in the JSONL stream (kinds: %v)", want, kinds)
		}
	}
}

// TestSlowQueryLogOption checks the WithSlowQueryLog plumbing: with a zero
// threshold every query is written as a JSON line and aggregated.
func TestSlowQueryLogOption(t *testing.T) {
	p, q := buildPair(t)
	var buf bytes.Buffer
	slow := cpq.NewSlowQueryLog(0, &buf)
	for i := 0; i < 3; i++ {
		if _, _, err := cpq.KClosestPairs(p, q, 4, cpq.WithSlowQueryLog(slow)); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1
	if lines != 3 {
		t.Fatalf("slow log wrote %d lines, want 3", lines)
	}
	var rep cpq.QueryReport
	first, _, _ := strings.Cut(buf.String(), "\n")
	if err := json.Unmarshal([]byte(first), &rep); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if rep.Results != 4 {
		t.Errorf("report has %d results, want 4", rep.Results)
	}
	if !strings.Contains(slow.Summary(), "3/3") {
		t.Errorf("summary %q does not count 3/3 queries", slow.Summary())
	}
}

// TestSlowQueryLogThreshold checks that a high threshold suppresses the
// JSON lines but keeps aggregating.
func TestSlowQueryLogThreshold(t *testing.T) {
	p, q := buildPair(t)
	var buf bytes.Buffer
	slow := cpq.NewSlowQueryLog(time.Hour, &buf)
	if _, _, err := cpq.ClosestPair(p, q, cpq.WithSlowQueryLog(slow)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("hour-threshold log wrote %q", buf.String())
	}
	if s := slow.Summary(); !strings.Contains(s, "0/1") {
		t.Errorf("summary %q does not show 0/1", s)
	}
}

// TestQueryCostReport checks the one per-query cost report: whatever the
// query's shape, WithMetrics and WithSlowQueryLog see exactly one report
// per query, built from the Stats the query returned. A sharded query
// counts once (not once per shard-pair join), and self, semi and range
// queries report under their own label.
func TestQueryCostReport(t *testing.T) {
	p, q := buildPair(t)
	const k = 10
	rows := []struct {
		name  string
		label string
		run   func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error)
	}{
		{"sequential", "HEAP k=10", func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error) {
			return cpq.KClosestPairs(p, q, k, opts...)
		}},
		{"parallel", "HEAP k=10 par=2", func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error) {
			return cpq.KClosestPairs(p, q, k, append(opts, cpq.WithParallelism(2))...)
		}},
		{"sharded", "HEAP k=10 shards=8", func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error) {
			return cpq.KClosestPairs(p, q, k, append(opts, cpq.WithShards(8))...)
		}},
		{"sharded+explain", "HEAP k=10 shards=8", func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error) {
			ec := cpq.NewExplainCapture(nil)
			return cpq.KClosestPairs(p, q, k, append(opts, cpq.WithShards(8), cpq.WithExplain(ec))...)
		}},
		{"self", "self HEAP k=10", func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error) {
			return cpq.SelfKClosestPairs(p, k, opts...)
		}},
		{"semi", "semi", func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error) {
			return cpq.SemiClosestPairs(p, q, opts...)
		}},
		{"range", "range", func(opts ...cpq.QueryOption) ([]cpq.Pair, cpq.Stats, error) {
			stats, err := cpq.WithinDistance(p, q, 0.01, func(cpq.Pair) bool { return true }, opts...)
			return nil, stats, err
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			em := cpq.NewEngineMetrics(cpq.NewMetrics())
			var buf bytes.Buffer
			slow := cpq.NewSlowQueryLog(0, &buf) // threshold 0: every query logs
			pairs, stats, err := row.run(cpq.WithMetrics(em), cpq.WithSlowQueryLog(slow))
			if err != nil {
				t.Fatal(err)
			}
			if got := em.Queries.Value(); got != 1 {
				t.Errorf("Queries = %d, want 1", got)
			}
			if got := em.AccessesTotal.Value(); got != stats.Accesses() {
				t.Errorf("AccessesTotal = %d, Stats.Accesses() = %d", got, stats.Accesses())
			}
			if len(pairs) > 0 {
				if n := em.ResultDistance.Count(); n != 1 {
					t.Errorf("ResultDistance has %d samples, want 1", n)
				}
				if got, want := em.ResultDistance.Sum(), pairs[len(pairs)-1].Dist; got != want {
					t.Errorf("ResultDistance sum = %v, want the K-th distance %v", got, want)
				}
			} else if n := em.ResultDistance.Count(); n != 0 {
				t.Errorf("ResultDistance has %d samples for a query that returned no pairs", n)
			}
			if n := strings.Count(buf.String(), "\n"); n != 1 {
				t.Fatalf("slow log wrote %d lines, want 1:\n%s", n, buf.String())
			}
			var rep cpq.QueryReport
			if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
				t.Fatalf("slow log line is not JSON: %v", err)
			}
			if rep.Label != row.label {
				t.Errorf("label = %q, want %q", rep.Label, row.label)
			}
			if rep.Accesses != stats.Accesses() {
				t.Errorf("slow log accesses = %d, Stats.Accesses() = %d", rep.Accesses, stats.Accesses())
			}
			if explained := strings.HasSuffix(row.name, "+explain"); explained != (len(rep.Explain) > 0) {
				t.Errorf("slow log line embeds explain: %v, want %v", len(rep.Explain) > 0, explained)
			}
		})
	}
}

// Example_observability is the README's curl-able setup in miniature.
func Example_observability() {
	reg := cpq.NewMetrics()
	_ = cpq.NewEngineMetrics(reg)
	srv := httptest.NewServer(cpq.ObservabilityMux(reg, false))
	defer srv.Close()
	resp, _ := srv.Client().Get(srv.URL + "/metrics")
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	fmt.Println(strings.Contains(string(page), "# TYPE cpq_queries_total counter"))
	// Output: true
}
