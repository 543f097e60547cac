package main

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/topology"
	"repro/internal/wire"
)

// The oracle computes every expected answer from the wiring plan alone: a
// breadth-first search over Topology.Links, never the program's routes,
// compiled network or topology.ShortestPath. All-pairs routing installs one
// shortest-path destination tree per client, so on the static lab a query's
// answer follows from hop distances and the access-point table.

// switchCounts returns, for every switch reachable from src, the number of
// switches on a shortest path from src to it, both ends included.
func switchCounts(links []topology.Link, src topology.SwitchID) map[topology.SwitchID]int {
	adj := make(map[topology.SwitchID][]topology.SwitchID)
	for _, l := range links {
		adj[l.A.Switch] = append(adj[l.A.Switch], l.B.Switch)
		adj[l.B.Switch] = append(adj[l.B.Switch], l.A.Switch)
	}
	count := map[topology.SwitchID]int{src: 1}
	queue := []topology.SwitchID{src}
	for len(queue) > 0 {
		sw := queue[0]
		queue = queue[1:]
		for _, next := range adj[sw] {
			if _, seen := count[next]; !seen {
				count[next] = count[sw] + 1
				queue = append(queue, next)
			}
		}
	}
	return count
}

// oracle holds the lab's expected facts: access points by index and the
// pairwise switch counts between their switches.
type oracle struct {
	aps    []topology.AccessPoint
	counts map[topology.SwitchID]map[topology.SwitchID]int
}

func newOracle(topo *topology.Topology, aps []topology.AccessPoint) *oracle {
	o := &oracle{aps: aps, counts: make(map[topology.SwitchID]map[topology.SwitchID]int)}
	for _, ap := range aps {
		sw := ap.Endpoint.Switch
		if o.counts[sw] == nil {
			o.counts[sw] = switchCounts(topo.Links(), sw)
		}
	}
	return o
}

// switchCount is the number of switches on a shortest path between two
// clients' access switches.
func (o *oracle) switchCount(src, dst int) int {
	return o.counts[o.aps[src].Endpoint.Switch][o.aps[dst].Endpoint.Switch]
}

// absentRegion names a region no switch of the wiring plan is placed in, so
// a waypoint-avoidance query for it must hold.
const absentRegion = "region-absent-from-plan"

// expectedEndpoints returns the access points a query from src must report:
// the destination for reachable-destinations, every other client for
// isolation, none for the verdict-only kinds.
func (o *oracle) expectedEndpoints(op queryOp) []topology.AccessPoint {
	switch op.kind {
	case wire.QueryReachableDestinations:
		return []topology.AccessPoint{o.aps[op.dst]}
	case wire.QueryIsolation:
		var out []topology.AccessPoint
		for i, ap := range o.aps {
			if i != op.src {
				out = append(out, ap)
			}
		}
		return out
	}
	return nil
}

// checkQuery compares a verified response with the oracle's answer and
// returns the failure reason, or "" when the answer is right.
func (o *oracle) checkQuery(op queryOp, resp *wire.QueryResponse) string {
	if resp.Kind != op.kind {
		return fmt.Sprintf("wrong verdict: kind %v, want %v", resp.Kind, op.kind)
	}
	if resp.AuthReplied < resp.AuthRequested {
		return fmt.Sprintf("auth replied %d < requested %d", resp.AuthReplied, resp.AuthRequested)
	}
	want := o.expectedEndpoints(op)
	if int(resp.AuthRequested) != len(want) {
		return fmt.Sprintf("wrong endpoint set: %d auth targets, want %d", resp.AuthRequested, len(want))
	}
	if reason := sameEndpoints(resp.Endpoints, want); reason != "" {
		return reason
	}
	wantStatus, wantDetail := wire.StatusOK, ""
	switch op.kind {
	case wire.QueryIsolation:
		// Every other client reaches the requester under all-pairs
		// routing, so isolation is broken by all of them.
		wantStatus = wire.StatusViolation
	case wire.QueryPathLength:
		n := o.switchCount(op.src, op.dst)
		if op.bound < n {
			wantStatus = wire.StatusViolation
			wantDetail = fmt.Sprintf("max path length %d exceeds bound %d", n, op.bound)
		} else {
			wantDetail = strconv.Itoa(n)
		}
	}
	if resp.Status != wantStatus {
		return fmt.Sprintf("wrong verdict: %v (%s), want %v", resp.Status, resp.Detail, wantStatus)
	}
	if wantDetail != "" && resp.Detail != wantDetail {
		return fmt.Sprintf("wrong verdict: %q, want %q", resp.Detail, wantDetail)
	}
	return ""
}

// sameEndpoints checks the reported endpoints are exactly want, each
// authenticated in-band by its own client.
func sameEndpoints(got []wire.Endpoint, want []topology.AccessPoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("wrong endpoint set: %d endpoints, want %d", len(got), len(want))
	}
	key := func(sw, port uint32) uint64 { return uint64(sw)<<32 | uint64(port) }
	var g, w []uint64
	for _, e := range got {
		if !e.Authenticated {
			return fmt.Sprintf("wrong endpoint set: s%d:p%d not authenticated", e.SwitchID, e.Port)
		}
		g = append(g, key(e.SwitchID, e.Port))
	}
	for _, ap := range want {
		w = append(w, key(uint32(ap.Endpoint.Switch), uint32(ap.Endpoint.Port)))
	}
	slices.Sort(g)
	slices.Sort(w)
	if !slices.Equal(g, w) {
		return "wrong endpoint set: reported endpoints differ from the wiring plan's"
	}
	for _, e := range got {
		for _, ap := range want {
			if uint32(ap.Endpoint.Switch) == e.SwitchID && uint32(ap.Endpoint.Port) == e.Port && ap.ClientID != e.ClientID {
				return fmt.Sprintf("wrong endpoint set: s%d:p%d reported as client %d, want %d", e.SwitchID, e.Port, e.ClientID, ap.ClientID)
			}
		}
	}
	return ""
}
