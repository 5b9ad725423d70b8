package router

import (
	"encoding/json"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"msrp/internal/metrics"
	"msrp/internal/server"
)

// TestStatsTagsChecked: every numeric field of the router section
// declares how it folds and differences.
func TestStatsTagsChecked(t *testing.T) {
	if err := metrics.Check[RouterSection](); err != nil {
		t.Fatal(err)
	}
}

// fleetSum and fleetMax pin how the fleet view combines each replica
// key; the remaining keys are rates, derived from the combined counters.
var (
	fleetSum = []string{"hits", "misses", "builds", "buildTimeMillis", "evictions",
		"batches", "batchQueries", "warms", "rejections", "cancellations",
		"cachedSources", "provenanceBytes", "provenanceEvictions", "provenanceRebuilds",
		"provenanceRebuildRejects", "provenanceRawBytes", "provenanceCompactedBytes"}
	fleetMax = []string{"sources", "maxCachedSources", "warmStageBuildMillis",
		"warmStageSeedEnumerateMillis", "warmStageSeedMergeMillis",
		"warmStageCenterLandmarkMillis", "warmStageAssemblyMillis", "warmPeakSeedPathBytes"}
	fleetRates = []string{"hitRate", "avgBuildMillis", "avgBatchSize"}
)

// wireMap is v as its JSON object.
func wireMap(t *testing.T, v any) map[string]float64 {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAggregateRandomFleets folds random fleets, some replicas
// unscraped, and checks every key of the fleet view against its sum or
// max over the replicas' keys, and the rates against the combined
// counters.
func TestAggregateRandomFleets(t *testing.T) {
	keys := slices.Concat(fleetSum, fleetMax, fleetRates)
	rng := rand.New(rand.NewPCG(1, 2))
	for fleet := 0; fleet < 2000; fleet++ {
		parts := make([]*server.StatsResponse, rng.IntN(6))
		var rows []map[string]float64
		for i := range parts {
			if rng.IntN(5) == 0 {
				continue // unscraped replica
			}
			row := map[string]float64{}
			for _, k := range keys {
				row[k] = float64(rng.IntN(1000))
				if strings.HasSuffix(k, "Millis") {
					row[k] += rng.Float64()
				}
			}
			b, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = new(server.StatsResponse)
			if err := json.Unmarshal(b, parts[i]); err != nil {
				t.Fatal(err)
			}
			parts[i].DeriveRates()
			rows = append(rows, row)
		}
		want := map[string]float64{}
		for _, row := range rows {
			for _, k := range fleetSum {
				want[k] += row[k]
			}
			for _, k := range fleetMax {
				want[k] = max(want[k], row[k])
			}
		}
		ratio := func(num, den float64) float64 {
			if den == 0 {
				return 0
			}
			return num / den
		}
		want["hitRate"] = ratio(want["hits"], want["hits"]+want["misses"])
		want["avgBuildMillis"] = ratio(want["buildTimeMillis"], want["builds"])
		want["avgBatchSize"] = ratio(want["batchQueries"], want["batches"])

		got := wireMap(t, aggregate(parts))
		if len(got) != len(keys) {
			t.Fatalf("fleet view has %d keys, want %d: %v", len(got), len(keys), got)
		}
		for _, k := range keys {
			if got[k] != want[k] {
				t.Fatalf("fleet %d (%d replicas): %s = %v, want %v", fleet, len(parts), k, got[k], want[k])
			}
		}
	}
}

// TestAggregateOneReplicaIsIdentity: a one-replica fleet reports exactly
// what its only replica reports, rates included.
func TestAggregateOneReplicaIsIdentity(t *testing.T) {
	fl := newFleet(t, 1)
	rt := newTestRouter(t, fl, nil)
	items, _ := fl.batch(t)
	if rec, _ := postQuery(t, rt, server.QueryRequest{Queries: items}); rec.Code != http.StatusOK {
		t.Fatalf("query status %d", rec.Code)
	}
	resp, err := http.Get(fl.urls[0] + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var replica server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&replica); err != nil {
		t.Fatal(err)
	}
	if replica.Builds == 0 {
		t.Fatalf("replica built nothing: %+v", replica)
	}
	if agg := aggregate([]*server.StatsResponse{&replica}); agg != replica {
		t.Fatalf("fleet of one differs from its replica:\nfleet   %+v\nreplica %+v", agg, replica)
	}
	if fleet := routerStats(t, rt).StatsResponse; fleet != replica {
		t.Fatalf("router /v1/stats differs from its only replica:\nfleet   %+v\nreplica %+v", fleet, replica)
	}
}

// TestRouterStatsWireKeys pins the router's /v1/stats key sets: a
// replica's keys at the top level plus "router", and the router
// section's own keys.
func TestRouterStatsWireKeys(t *testing.T) {
	fl := newFleet(t, 2)
	rt := newTestRouter(t, fl, nil)
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var top map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &top); err != nil {
		t.Fatal(err)
	}
	var section map[string]json.RawMessage
	if err := json.Unmarshal(top["router"], &section); err != nil {
		t.Fatal(err)
	}
	wantTop := slices.Concat(fleetSum, fleetMax, fleetRates, []string{"router"})
	wantSection := []string{"batches", "items", "subBatches", "retries", "failovers",
		"failoverWarms", "routeErrors", "rejections", "handbacks", "epoch", "joins",
		"drains", "removes", "membershipWarms", "staleReplicas", "members",
		"replicasUp", "replicas"}
	for _, c := range []struct {
		name string
		got  map[string]json.RawMessage
		want []string
	}{{"top level", top, wantTop}, {"router section", section, wantSection}} {
		got := slices.Sorted(maps.Keys(c.got))
		slices.Sort(c.want)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s keys:\n got  %v\n want %v", c.name, got, c.want)
		}
	}
}
