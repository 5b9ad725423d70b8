package router

import (
	"net/http"
	"sync"

	"msrp/internal/server"
)

// ReplicaStats is one fleet member's row in the aggregated stats view.
type ReplicaStats struct {
	Name            string                `json:"name"`
	State           string                `json:"state"`
	Member          bool                  `json:"member"`
	JoinEpoch       uint64                `json:"joinEpoch"`
	SliceWarmed     bool                  `json:"sliceWarmed"`
	RoutedItems     int64                 `json:"routedItems"`
	FailedOverItems int64                 `json:"failedOverItems"`
	ProbeFailures   int64                 `json:"probeFailures"`
	CachedSources   int                   `json:"cachedSources"`
	Stats           *server.StatsResponse `json:"stats,omitempty"`
}

// RouterSection is the router's own counters, nested under "router" in
// the stats response so a scraper built for a single replica's
// StatsResponse keeps working (it ignores the extra key) while a
// router-aware one sees the fleet.
type RouterSection struct {
	Batches         int64          `json:"batches"`
	Items           int64          `json:"items"`
	SubBatches      int64          `json:"subBatches"`
	Retries         int64          `json:"retries"`
	Failovers       int64          `json:"failovers"`
	FailoverWarms   int64          `json:"failoverWarms"`
	RouteErrors     int64          `json:"routeErrors"`
	Rejections      int64          `json:"rejections"`
	Handbacks       int64          `json:"handbacks"`
	Epoch           uint64         `json:"epoch"`
	Joins           int64          `json:"joins"`
	Drains          int64          `json:"drains"`
	Removes         int64          `json:"removes"`
	MembershipWarms int64          `json:"membershipWarms"`
	StaleReplicas   int            `json:"staleReplicas"`
	Members         []int          `json:"members"`
	ReplicasUp      int            `json:"replicasUp"`
	Replicas        []ReplicaStats `json:"replicas"`
}

// StatsResponse is the router's /v1/stats body: a fleet-aggregated
// server.StatsResponse at the top level plus the "router" section.
type StatsResponse struct {
	server.StatsResponse
	Router RouterSection `json:"router"`
}

// aggregate folds per-replica stats into one fleet view. Counters sum;
// capacity facts (sources, maxCachedSources) and high-water marks (the
// warm-stage latencies, peak bytes) take the max — summing a latency
// across replicas that warmed in parallel would report a wall time
// nobody experienced; rates are recomputed from the summed counters.
func aggregate(parts []*server.StatsResponse) server.StatsResponse {
	var agg server.StatsResponse
	for _, p := range parts {
		if p == nil {
			continue
		}
		agg.Hits += p.Hits
		agg.Misses += p.Misses
		agg.Builds += p.Builds
		agg.BuildTimeMillis += p.BuildTimeMillis
		agg.Evictions += p.Evictions
		agg.Batches += p.Batches
		agg.BatchQueries += p.BatchQueries
		agg.Warms += p.Warms
		agg.Rejections += p.Rejections
		agg.Cancellations += p.Cancellations
		agg.CachedSources += p.CachedSources
		agg.ProvenanceBytes += p.ProvenanceBytes
		agg.ProvenanceEvictions += p.ProvenanceEvictions
		agg.ProvenanceRebuilds += p.ProvenanceRebuilds
		agg.ProvenanceRebuildRejects += p.ProvenanceRebuildRejects
		// The raw/compacted pair sums too: each replica warms its own
		// slice, so the fleet's plane is the sum of the slices' planes.
		agg.ProvenanceRawBytes += p.ProvenanceRawBytes
		agg.ProvenanceCompactedBytes += p.ProvenanceCompactedBytes
		if p.Sources > agg.Sources {
			agg.Sources = p.Sources
		}
		if p.MaxCachedSources > agg.MaxCachedSources {
			agg.MaxCachedSources = p.MaxCachedSources
		}
		if p.WarmStageBuildMillis > agg.WarmStageBuildMillis {
			agg.WarmStageBuildMillis = p.WarmStageBuildMillis
		}
		if p.WarmStageSeedEnumerateMillis > agg.WarmStageSeedEnumerateMillis {
			agg.WarmStageSeedEnumerateMillis = p.WarmStageSeedEnumerateMillis
		}
		if p.WarmStageSeedMergeMillis > agg.WarmStageSeedMergeMillis {
			agg.WarmStageSeedMergeMillis = p.WarmStageSeedMergeMillis
		}
		if p.WarmStageCenterLandmarkMillis > agg.WarmStageCenterLandmarkMillis {
			agg.WarmStageCenterLandmarkMillis = p.WarmStageCenterLandmarkMillis
		}
		if p.WarmStageAssemblyMillis > agg.WarmStageAssemblyMillis {
			agg.WarmStageAssemblyMillis = p.WarmStageAssemblyMillis
		}
		if p.WarmPeakSeedPathBytes > agg.WarmPeakSeedPathBytes {
			agg.WarmPeakSeedPathBytes = p.WarmPeakSeedPathBytes
		}
	}
	if lookups := agg.Hits + agg.Misses; lookups > 0 {
		agg.HitRate = float64(agg.Hits) / float64(lookups)
	}
	if agg.Builds > 0 {
		agg.AvgBuildMillis = float64(agg.BuildTimeMillis) / float64(agg.Builds)
	}
	if agg.Batches > 0 {
		agg.AvgBatchSize = float64(agg.BatchQueries) / float64(agg.Batches)
	}
	return agg
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	// Snapshot the replica table and the ring once: rows added by a
	// concurrent join simply don't appear in this scrape.
	reps := rt.health.snapshot()
	ring := rt.ring.Load()

	// Scrape live replicas concurrently; a replica that is down (or
	// removed, or dies mid-scrape) contributes its routing counters but
	// no oracle stats — it is not there to ask. Serving members whose
	// scrape fails are reported as stale rather than silently absorbed
	// into a too-small aggregate.
	parts := make([]*server.StatsResponse, len(reps))
	cachedCounts := make([]int, len(reps))
	scraped := make([]bool, len(reps))
	var wg sync.WaitGroup
	for i, rep := range reps {
		if rep.removed.Load() || rep.State() == StateDown {
			continue
		}
		scraped[i] = true
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			var st server.StatsResponse
			if err := rt.getJSON(r.Context(), base+"/v1/stats", &st); err == nil {
				parts[i] = &st
				cachedCounts[i] = st.CachedSources
			}
		}(i, rep.name)
	}
	wg.Wait()

	stale := 0
	for i := range reps {
		if ring.Contains(i) && (!scraped[i] || parts[i] == nil) {
			stale++
		}
	}

	sec := RouterSection{
		Batches:         rt.batches.Load(),
		Items:           rt.items.Load(),
		SubBatches:      rt.subBatches.Load(),
		Retries:         rt.retries.Load(),
		Failovers:       rt.failovers.Load(),
		FailoverWarms:   rt.failoverWarms.Load(),
		RouteErrors:     rt.routeErrors.Load(),
		Rejections:      rt.rejections.Load(),
		Handbacks:       rt.health.handbacks.Load(),
		Epoch:           ring.Epoch(),
		Joins:           rt.joins.Load(),
		Drains:          rt.drains.Load(),
		Removes:         rt.removes.Load(),
		MembershipWarms: rt.membershipWarms.Load(),
		StaleReplicas:   stale,
		Members:         ring.Members(),
		Replicas:        make([]ReplicaStats, len(reps)),
	}
	for i, rep := range reps {
		state := rep.State()
		stateStr := state.String()
		if rep.removed.Load() {
			stateStr = "removed"
		} else if state == StateUp && ring.Contains(i) {
			sec.ReplicasUp++
		}
		sec.Replicas[i] = ReplicaStats{
			Name:            rep.name,
			State:           stateStr,
			Member:          ring.Contains(i),
			JoinEpoch:       rep.joinEpoch.Load(),
			SliceWarmed:     rep.sliceWarmed.Load(),
			RoutedItems:     rep.routedItems.Load(),
			FailedOverItems: rep.failedOverItems.Load(),
			ProbeFailures:   rep.probeFailures.Load(),
			CachedSources:   cachedCounts[i],
			Stats:           parts[i],
		}
	}
	writeJSON(w, http.StatusOK, StatsResponse{
		StatsResponse: aggregate(parts),
		Router:        sec,
	})
}
