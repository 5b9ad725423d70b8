package router

import (
	"net/http"
	"sync"

	"msrp/internal/metrics"
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
// router-aware one sees the fleet. Its stat tags declare each metric
// the way msrp.OracleStats does; a load wave records the section's
// metrics.Delta.
type RouterSection struct {
	Batches         int64          `json:"batches" stat:"counter"`
	Items           int64          `json:"items" stat:"counter"`
	SubBatches      int64          `json:"subBatches" stat:"counter"`
	Retries         int64          `json:"retries" stat:"counter"`
	Failovers       int64          `json:"failovers" stat:"counter"`
	FailoverWarms   int64          `json:"failoverWarms" stat:"counter"`
	RouteErrors     int64          `json:"routeErrors" stat:"counter"`
	Rejections      int64          `json:"rejections" stat:"counter"`
	Handbacks       int64          `json:"handbacks" stat:"counter"`
	Epoch           uint64         `json:"epoch" stat:"peak"`
	Joins           int64          `json:"joins" stat:"counter"`
	Drains          int64          `json:"drains" stat:"counter"`
	Removes         int64          `json:"removes" stat:"counter"`
	MembershipWarms int64          `json:"membershipWarms" stat:"counter"`
	StaleReplicas   int            `json:"staleReplicas" stat:"gauge"`
	Members         []int          `json:"members"`
	ReplicasUp      int            `json:"replicasUp" stat:"gauge"`
	Replicas        []ReplicaStats `json:"replicas,omitempty"`
}

// StatsResponse is the router's /v1/stats body: a fleet-aggregated
// server.StatsResponse at the top level plus the "router" section.
type StatsResponse struct {
	server.StatsResponse
	Router RouterSection `json:"router"`
}

// aggregate folds the scraped replicas' stats into one fleet view by
// their stat tags (internal/metrics) and derives the fleet's rates.
// Capacity facts and last-warm latencies are peaks: summing a latency
// across replicas that warmed in parallel would report a wall time
// nobody experienced.
func aggregate(parts []*server.StatsResponse) server.StatsResponse {
	var agg server.StatsResponse
	for _, p := range parts {
		if p != nil {
			metrics.Fold(&agg, *p)
		}
	}
	agg.DeriveRates()
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
