package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"msrp/internal/metrics"
)

// TestStatsWireContract pins a single server's /v1/stats: every numeric
// field declares its stat kind, the key set is exactly the 28 keys
// scrapers and load records read, buildTimeMillis carries the oracle's
// BuildTime to the nanosecond, and avgBuildMillis is derived from it.
func TestStatsWireContract(t *testing.T) {
	if err := metrics.Check[StatsResponse](); err != nil {
		t.Fatal(err)
	}
	srv, oracle, sources := newTestServer(t, Config{})
	if rec := postJSON(t, srv, "/v1/query", QueryRequest{Queries: validQueries(t, oracle, sources)}); rec.Code != http.StatusOK {
		t.Fatalf("query status = %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var wire map[string]float64
	if err := json.Unmarshal(rec.Body.Bytes(), &wire); err != nil {
		t.Fatal(err)
	}
	want := []string{"hits", "misses", "hitRate", "builds", "buildTimeMillis",
		"avgBuildMillis", "evictions", "batches", "batchQueries", "avgBatchSize",
		"warms", "rejections", "cancellations", "cachedSources", "sources",
		"maxCachedSources", "provenanceBytes", "provenanceEvictions",
		"provenanceRebuilds", "provenanceRebuildRejects", "provenanceRawBytes",
		"provenanceCompactedBytes", "warmStageBuildMillis",
		"warmStageSeedEnumerateMillis", "warmStageSeedMergeMillis",
		"warmStageCenterLandmarkMillis", "warmStageAssemblyMillis",
		"warmPeakSeedPathBytes"}
	slices.Sort(want)
	if got := slices.Sorted(maps.Keys(wire)); !slices.Equal(got, want) {
		t.Fatalf("/v1/stats keys:\n got  %v\n want %v", got, want)
	}
	st := oracle.Stats()
	if st.Builds == 0 || wire["buildTimeMillis"] != float64(st.BuildTime.Nanoseconds())/1e6 {
		t.Fatalf("buildTimeMillis = %v, oracle BuildTime = %v over %d builds", wire["buildTimeMillis"], st.BuildTime, st.Builds)
	}
	if got, want := wire["avgBuildMillis"], wire["buildTimeMillis"]/wire["builds"]; got != want {
		t.Fatalf("avgBuildMillis = %v, want buildTimeMillis/builds = %v", got, want)
	}
}
