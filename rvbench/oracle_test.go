package main

import (
	"testing"

	"repro/internal/topology"
	"repro/internal/wire"
)

// TestSwitchCountsFatTree checks the oracle's BFS against the fat tree's
// closed forms: hosts on one edge switch cross 1 switch, hosts in one pod
// cross edge–aggregation–edge (3), hosts in different pods cross
// edge–aggregation–core–aggregation–edge (5). No lab is started.
func TestSwitchCountsFatTree(t *testing.T) {
	for _, k := range []int{4, 6} {
		topo, err := topology.FatTree(k)
		if err != nil {
			t.Fatal(err)
		}
		half := k / 2
		// FatTree numbers edge switches 2000 + pod*half + index.
		pod := func(sw topology.SwitchID) int { return (int(sw) - 2000) / half }
		aps := topo.AccessPoints()
		o := newOracle(topo, aps)
		seen := map[int]bool{}
		for i, a := range aps {
			for j, b := range aps {
				want := 5
				switch {
				case a.Endpoint.Switch == b.Endpoint.Switch:
					want = 1
				case pod(a.Endpoint.Switch) == pod(b.Endpoint.Switch):
					want = 3
				}
				seen[want] = true
				if got := o.switchCount(i, j); got != want {
					t.Errorf("k=%d: clients %d→%d (s%d→s%d) cross %d switches, want %d",
						k, a.ClientID, b.ClientID, a.Endpoint.Switch, b.Endpoint.Switch, got, want)
				}
			}
		}
		if len(seen) != 3 {
			t.Errorf("k=%d: pairs covered distance classes %v, want all of 1, 3, 5", k, seen)
		}
	}
}

// TestCheckQueryPathLength checks the path-length verdict holds at the
// oracle's switch count and fails one below it.
func TestCheckQueryPathLength(t *testing.T) {
	topo, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(topo, topo.AccessPoints())
	op := queryOp{src: 0, dst: 15, kind: wire.QueryPathLength, bound: 5}
	hold := &wire.QueryResponse{Kind: wire.QueryPathLength, Status: wire.StatusOK, Detail: "5"}
	if r := o.checkQuery(op, hold); r != "" {
		t.Errorf("bound 5 holding: %s", r)
	}
	op.bound = 4
	if r := o.checkQuery(op, hold); r == "" {
		t.Error("bound 4 reported holding was accepted")
	}
	fail := &wire.QueryResponse{Kind: wire.QueryPathLength, Status: wire.StatusViolation, Detail: "max path length 5 exceeds bound 4"}
	if r := o.checkQuery(op, fail); r != "" {
		t.Errorf("bound 4 failing: %s", r)
	}
}
