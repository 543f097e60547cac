package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/client"
	"repro/internal/deploy"
	"repro/internal/labspec"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

const (
	// fatTreeK sizes the lab: FatTree(4) has 20 switches and 16 clients.
	fatTreeK = 4
	// portsPerPair standing invariants per ordered client pair, kept
	// distinct by L4 destination port: 16 × 15 × 40 = 9,600 in all.
	portsPerPair = 40
	// basePort is the first invariant L4 port; the range stays clear of
	// the RVaaS in-band ports (0x5AA5 and up).
	basePort = 20000
	// opTimeout bounds one op; an op that has not completed by then fails.
	opTimeout = 5 * time.Second
)

// subState is one standing invariant as the benchmark tracks it: the scope
// it was registered with and the verdict and sequence number the oracle
// expects it to hold.
type subState struct {
	sub      *client.Subscription
	src, dst int
	port     int
	seq      uint64
	violated bool
}

// lab is one running RVaaS deployment with the standing invariants
// registered.
type lab struct {
	d   *deploy.Deployment
	ctl *rvaas.Controller
	// aps are the access points in client-id order; ops name clients by
	// index into it.
	aps    []topology.AccessPoint
	agents []*client.Agent
	// subs[src][dst][port] (nil where src == dst).
	subs [][][]*subState
	all  []*subState
}

// setupTimes is one lab bring-up, split into its two stages.
type setupTimes struct {
	deploy, subscribe, cpu time.Duration
}

func (s setupTimes) total() time.Duration { return s.deploy + s.subscribe }

// newLab deploys FatTree(4) with all-pairs routing, protocol-v2 agents and
// in-memory channels, then registers every client's 600 invariants in-band
// with one BatchSubscribe each. manualRecheck turns the background recheck
// worker off (the traced run drives passes itself).
func newLab(manualRecheck bool) (*lab, setupTimes, error) {
	var st setupTimes
	topo, err := topology.FatTree(fatTreeK)
	if err != nil {
		return nil, st, err
	}
	cpu0 := processCPU()
	t0 := time.Now()
	d, err := deploy.New(topo, deploy.Options{
		AgentProtocol: wire.EnvelopeVersion,
		Transport:     labspec.TransportInProc,
		ManualRecheck: manualRecheck,
	})
	if err != nil {
		return nil, st, fmt.Errorf("deploy: %w", err)
	}
	st.deploy = time.Since(t0)
	l := &lab{d: d, ctl: d.RVaaS, aps: topo.AccessPoints()}
	slices.SortFunc(l.aps, func(a, b topology.AccessPoint) int { return int(a.ClientID) - int(b.ClientID) })
	for _, ap := range l.aps {
		l.agents = append(l.agents, d.Agent(ap.ClientID))
	}

	t1 := time.Now()
	err = l.subscribeAll()
	st.subscribe = time.Since(t1)
	st.cpu = processCPU() - cpu0
	if err == nil {
		err = l.baseline()
	}
	if err == nil {
		err = l.settle()
	}
	if err != nil {
		l.close()
		return nil, st, err
	}
	return l, st, nil
}

// invariantItem is the reachability invariant from one client towards dst
// for one L4 destination port.
func invariantItem(dst topology.AccessPoint, port int) wire.BatchItem {
	return wire.BatchItem{
		Kind: wire.QueryReachableDestinations,
		Constraints: []wire.FieldConstraint{
			{Field: wire.FieldIPDst, Value: uint64(dst.HostIP), Mask: 0xFFFFFFFF},
			{Field: wire.FieldL4Dst, Value: uint64(basePort + port), Mask: 0xFFFF},
		},
	}
}

func (l *lab) subscribeAll() error {
	n := len(l.aps)
	l.subs = make([][][]*subState, n)
	for src := range l.aps {
		l.subs[src] = make([][]*subState, n)
		var items []wire.BatchItem
		var states []*subState
		for dst, ap := range l.aps {
			if dst == src {
				continue
			}
			l.subs[src][dst] = make([]*subState, portsPerPair)
			for p := 0; p < portsPerPair; p++ {
				items = append(items, invariantItem(ap, p))
				s := &subState{src: src, dst: dst, port: p}
				l.subs[src][dst][p] = s
				states = append(states, s)
			}
		}
		subs, err := l.agents[src].BatchSubscribe(items)
		if err != nil {
			return fmt.Errorf("client %d batch subscribe: %w", l.aps[src].ClientID, err)
		}
		if len(subs) != len(states) {
			return fmt.Errorf("client %d batch subscribe: %d of %d registered", l.aps[src].ClientID, len(subs), len(states))
		}
		for i, sub := range subs {
			if sub == nil {
				return fmt.Errorf("client %d batch item %d rejected", l.aps[src].ClientID, i)
			}
			if sub.InitialStatus != wire.StatusOK {
				return fmt.Errorf("client %d invariant %d starts %v (%s), want ok", l.aps[src].ClientID, i, sub.InitialStatus, sub.InitialDetail)
			}
			states[i].sub = sub
		}
		l.all = append(l.all, states...)
	}
	return nil
}

// baseline records each invariant's sequence number after registration;
// every later notification must advance it by exactly one.
func (l *lab) baseline() error {
	seq := make(map[uint64]uint64, len(l.all))
	for _, info := range l.ctl.Subscriptions() {
		seq[info.ID] = info.Seq
	}
	for _, s := range l.all {
		v, ok := seq[s.sub.ID]
		if !ok {
			return fmt.Errorf("subscription %d unknown to the controller", s.sub.ID)
		}
		s.seq = v
	}
	return nil
}

// settle waits until the controller has absorbed every flow-table change
// the switches have made (its interception-rule installs land
// asynchronously after deploy) and the result holds for a few reads.
func (l *lab) settle() error {
	deadline := time.Now().Add(10 * time.Second)
	stable := 0
	for stable < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("lab did not settle within 10s")
		}
		if l.absorbed() {
			stable++
		} else {
			stable = 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// absorbed reports whether every switch's last flow-table change has
// reached the controller's snapshot.
func (l *lab) absorbed() bool {
	for id, sw := range l.d.Fabric.Switches() {
		if l.ctl.SnapshotSeq(id) < sw.TableSeq() {
			return false
		}
	}
	return true
}

func (l *lab) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// A teardown that overruns only leaves goroutines behind in a process
	// that is about to bring up the next lab or exit.
	_ = l.d.Shutdown(ctx)
}

// counters are the program's own work and loss counters, read from public
// getters; the benchmark reports their deltas over the op phase.
type counters struct {
	passiveEvents  uint64
	authRequested  uint64
	switchCompiles uint64
	evaluations    uint64
	examined       uint64
	transitions    uint64
	notifications  uint64
	notifDropped   uint64
	gaps           uint64
	dropped        uint64
	resumes        uint64
}

func (l *lab) counters() counters {
	st := l.ctl.Stats()
	cc := l.ctl.CompileCacheStats()
	ss := l.ctl.SubscriptionStats()
	c := counters{
		passiveEvents:  st.PassiveEvents,
		authRequested:  st.AuthRequested,
		switchCompiles: cc.SwitchCompiles,
		evaluations:    ss.Evaluated,
		examined:       ss.IndexDispatched + ss.DeltaSkipped,
		transitions:    ss.Violations + ss.Recoveries,
		notifications:  ss.NotificationsSent,
		notifDropped:   ss.NotificationsDropped,
	}
	for _, ag := range l.agents {
		c.gaps += ag.GapsDetected()
		c.dropped += ag.NotificationsDropped()
		c.resumes += ag.SessionResumesSent()
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		passiveEvents:  c.passiveEvents - o.passiveEvents,
		authRequested:  c.authRequested - o.authRequested,
		switchCompiles: c.switchCompiles - o.switchCompiles,
		evaluations:    c.evaluations - o.evaluations,
		examined:       c.examined - o.examined,
		transitions:    c.transitions - o.transitions,
		notifications:  c.notifications - o.notifications,
		notifDropped:   c.notifDropped - o.notifDropped,
		gaps:           c.gaps - o.gaps,
		dropped:        c.dropped - o.dropped,
		resumes:        c.resumes - o.resumes,
	}
}

func (c counters) add(o counters) counters {
	return counters{
		passiveEvents:  c.passiveEvents + o.passiveEvents,
		authRequested:  c.authRequested + o.authRequested,
		switchCompiles: c.switchCompiles + o.switchCompiles,
		evaluations:    c.evaluations + o.evaluations,
		examined:       c.examined + o.examined,
		transitions:    c.transitions + o.transitions,
		notifications:  c.notifications + o.notifications,
		notifDropped:   c.notifDropped + o.notifDropped,
		gaps:           c.gaps + o.gaps,
		dropped:        c.dropped + o.dropped,
		resumes:        c.resumes + o.resumes,
	}
}

// String prints the per-op work counts the no-op guard checks.
func (c counters) perOp(ops int) string {
	f := func(v uint64) float64 { return float64(v) / float64(max(ops, 1)) }
	return fmt.Sprintf("passive_events=%.3f switch_compiles=%.3f evaluations=%.3f examined=%.3f transitions=%.3f notifications=%.3f auth_targets=%.3f (over %d ops)",
		f(c.passiveEvents), f(c.switchCompiles), f(c.evaluations), f(c.examined), f(c.transitions), f(c.notifications), f(c.authRequested), ops)
}

// forceGC collects twice so finalizers queued by the first cycle run and the
// live-heap reading reflects only reachable state.
func forceGC() {
	runtime.GC()
	runtime.GC()
}

// subsOf returns the invariants client src registered.
func (l *lab) subsOf(src int) []*subState {
	var out []*subState
	for _, byPort := range l.subs[src] {
		out = append(out, byPort...)
	}
	return out
}

// strays reports a notification pending on any of subs: by the time it is
// called every expected notification has been read, so anything left was
// sent to a subscription whose scope the change did not touch.
func (l *lab) strays(subs []*subState) string {
	for _, s := range subs {
		select {
		case n := <-s.sub.C:
			return fmt.Sprintf("stray notification: sub %d (client %d → client %d port %d) got %v seq %d",
				s.sub.ID, l.aps[s.src].ClientID, l.aps[s.dst].ClientID, basePort+s.port, n.Event, n.Seq)
		default:
		}
	}
	return ""
}

// verdictsAgree checks every verdict is green at the end of a run, in the
// oracle's account and in the controller's, and that the controller's
// sequence numbers match the notifications the clients received.
func (l *lab) verdictsAgree() string {
	byID := make(map[uint64]*subState, len(l.all))
	for _, s := range l.all {
		if s.violated {
			return fmt.Sprintf("sub %d still violated at the end of the run", s.sub.ID)
		}
		byID[s.sub.ID] = s
	}
	infos := l.ctl.Subscriptions()
	if len(infos) != len(l.all) {
		return fmt.Sprintf("controller holds %d subscriptions, want %d", len(infos), len(l.all))
	}
	for _, info := range infos {
		s := byID[info.ID]
		switch {
		case s == nil:
			return fmt.Sprintf("controller holds unknown subscription %d", info.ID)
		case info.Violated:
			return fmt.Sprintf("controller reports sub %d violated at the end of the run", info.ID)
		case info.Seq != s.seq:
			return fmt.Sprintf("sub %d: controller seq %d, clients saw %d", info.ID, info.Seq, s.seq)
		}
	}
	return ""
}
