package load

import (
	"encoding/json"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"msrp/internal/metrics"
	"msrp/internal/router"
	"msrp/internal/server"
)

// TestWaveDeltaKinds pins what a wave record holds for every number of
// /v1/stats and of the router section: counters subtract, every other
// number is read at wave end, and the rates are the wave's own.
func TestWaveDeltaKinds(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	// scrapes decodes a random before and after scrape of keys into
	// before and after, and returns both as plain numbers; after grows
	// every key.
	scrapes := func(keys []string, before, after any) (b, a map[string]float64) {
		b, a = map[string]float64{}, map[string]float64{}
		for _, k := range keys {
			b[k], a[k] = float64(rng.IntN(1000)), float64(1+rng.IntN(1000))
			if strings.HasSuffix(k, "Millis") {
				b[k] += rng.Float64()
			}
			a[k] += b[k]
		}
		for _, s := range []struct {
			m map[string]float64
			v any
		}{{b, before}, {a, after}} {
			j, err := json.Marshal(s.m)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(j, s.v); err != nil {
				t.Fatal(err)
			}
		}
		return b, a
	}
	// check compares the wave record d with before and after, key by
	// key, and returns what it expected.
	check := func(d any, before, after map[string]float64, counters []string) map[string]float64 {
		j, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal(j, &got); err != nil {
			t.Fatal(err)
		}
		want := maps.Clone(after)
		for _, k := range counters {
			want[k] -= before[k]
		}
		for k, w := range want {
			if got[k] != w {
				t.Errorf("wave %s = %v, want %v (before %v, after %v)", k, got[k], w, before[k], after[k])
			}
		}
		return want
	}

	counters := []string{"hits", "misses", "builds", "buildTimeMillis", "evictions",
		"batches", "batchQueries", "warms", "rejections", "cancellations",
		"provenanceEvictions", "provenanceRebuilds", "provenanceRebuildRejects"}
	atEnd := []string{"cachedSources", "provenanceBytes", "provenanceRawBytes",
		"provenanceCompactedBytes", "sources", "maxCachedSources", "warmStageBuildMillis",
		"warmStageSeedEnumerateMillis", "warmStageSeedMergeMillis",
		"warmStageCenterLandmarkMillis", "warmStageAssemblyMillis", "warmPeakSeedPathBytes"}
	var before, after server.StatsResponse
	bm, am := scrapes(slices.Concat(counters, atEnd), &before, &after)
	st := metrics.Delta(before, after)
	st.DeriveRates()
	want := check(st, bm, am, counters)
	if st.HitRate != want["hits"]/(want["hits"]+want["misses"]) ||
		st.AvgBuildMillis != want["buildTimeMillis"]/want["builds"] ||
		st.AvgBatchSize != want["batchQueries"]/want["batches"] {
		t.Errorf("wave rates %v %v %v are not the wave's own", st.HitRate, st.AvgBuildMillis, st.AvgBatchSize)
	}

	counters = []string{"batches", "items", "subBatches", "retries", "failovers",
		"failoverWarms", "routeErrors", "rejections", "handbacks", "joins", "drains",
		"removes", "membershipWarms"}
	atEnd = []string{"epoch", "staleReplicas", "replicasUp"}
	var sb, sa router.RouterSection
	bm, am = scrapes(slices.Concat(counters, atEnd), &sb, &sa)
	sb.Members, sa.Members = []int{0, 1}, []int{1, 2}
	d := metrics.Delta(sb, sa)
	check(d, bm, am, counters)
	if !slices.Equal(d.Members, sa.Members) {
		t.Errorf("wave members = %v, want the wave end's %v", d.Members, sa.Members)
	}
}

// statsRecord is the stats-bearing part of a load record, as plain
// JSON values.
type statsRecord struct {
	Data struct {
		Waves []struct {
			Stats  map[string]any `json:"stats"`
			Router map[string]any `json:"router"`
		} `json:"waves"`
		Server map[string]any `json:"server"`
	} `json:"data"`
}

// TestCommittedRecordsLoad: every committed load record, written before
// the wave stats became full /v1/stats deltas, still loads as a
// baseline, and every stats, router and server value it carries
// survives the decode.
func TestCommittedRecordsLoad(t *testing.T) {
	for _, name := range []string{"BENCH_MICRO.json", "BENCH_E16.json", "BENCH_E17.json", "BENCH_E18.json", "BENCH_E19.json"} {
		path := filepath.Join("..", "..", name)
		res, err := LoadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var raw, back statsRecord
		if err := json.Unmarshal(b, &raw); err != nil {
			t.Fatal(err)
		}
		if b, err = json.Marshal(map[string]any{"data": res}); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		same := func(where string, raw, back map[string]any) {
			for k, v := range raw {
				if !reflect.DeepEqual(back[k], v) {
					t.Errorf("%s %s: %s = %v after loading, recorded %v", name, where, k, back[k], v)
				}
			}
		}
		same("server", raw.Data.Server, back.Data.Server)
		for i, w := range raw.Data.Waves {
			same(fmt.Sprintf("wave %d stats", i), w.Stats, back.Data.Waves[i].Stats)
			same(fmt.Sprintf("wave %d router", i), w.Router, back.Data.Waves[i].Router)
		}
	}
}
