package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/wire"
)

const (
	// dropPriority outranks the provider's routes (100) and stays below
	// RVaaS's interception rules, as a compromised provider's rule would.
	dropPriority = 900
	dropCookie   = 0xBE4C4
	// narrowChanges and wideChanges are the install/remove pairs in one
	// round of each detect workload.
	narrowChanges = 8
	wideChanges   = 2
	// wholeDestination marks a drop that matches every port of the
	// destination.
	wholeDestination = -1
)

// detectOp is one provider rule change: install (or, one op later,
// remove) a high-priority drop for traffic to client dst at dst's edge
// switch, matching one invariant L4 port or the whole destination.
type detectOp struct {
	dst     int
	port    int
	install bool
}

// detectWorkload streams rule changes; each op ends when every invariant
// the change flips has its signed notification verified at its client.
type detectWorkload struct {
	l     *lab
	round []detectOp
	// flips[i] are the invariants op i flips, in the order they are read.
	flips    [][]*subState
	last     *subState
	lastNote *wire.Notification
}

func newDetectWorkload(l *lab, seed int64, wide bool) *detectWorkload {
	rng := rand.New(rand.NewSource(seed))
	changes := narrowChanges
	if wide {
		changes = wideChanges
	}
	w := &detectWorkload{l: l}
	for c := 0; c < changes; c++ {
		op := detectOp{dst: rng.Intn(len(l.aps)), port: wholeDestination}
		if !wide {
			op.port = rng.Intn(portsPerPair)
		}
		remove := op
		op.install = true
		w.round = append(w.round, op, remove)
	}
	for _, op := range w.round {
		w.flips = append(w.flips, w.flipSet(op))
	}
	return w
}

// flipSet is the oracle's expected flip set: every invariant whose scope
// lies inside the drop's match, i.e. towards dst on the dropped port(s).
func (w *detectWorkload) flipSet(op detectOp) []*subState {
	var out []*subState
	for src := range w.l.aps {
		if src == op.dst {
			continue
		}
		for p, s := range w.l.subs[src][op.dst] {
			if op.port == wholeDestination || op.port == p {
				out = append(out, s)
			}
		}
	}
	return out
}

func dropEntry(op detectOp, l *lab) openflow.FlowEntry {
	fields := []openflow.FieldMatch{{Field: wire.FieldIPDst, Value: uint64(l.aps[op.dst].HostIP), Mask: 0xFFFFFFFF}}
	if op.port != wholeDestination {
		fields = append(fields, openflow.FieldMatch{Field: wire.FieldL4Dst, Value: uint64(basePort + op.port), Mask: 0xFFFF})
	}
	return openflow.FlowEntry{Priority: dropPriority, Match: openflow.Match{InPort: openflow.AnyPort, Fields: fields}, Cookie: dropCookie}
}

func (w *detectWorkload) ops() int { return len(w.round) }

func (w *detectWorkload) run(i int, tr *tracer) outcome {
	op := w.round[i]
	swID := w.l.aps[op.dst].Endpoint.Switch
	sw := w.l.d.Fabric.Switch(swID)
	entry := dropEntry(op, w.l)
	id := 0
	if tr != nil {
		id = tr.begin("op", 0)
	}
	t0 := time.Now()
	deadline := t0.Add(opTimeout)
	if op.install {
		sw.InstallDirect(entry)
	} else {
		sw.RemoveDirect(entry)
	}
	var fail string
	var wrong bool
	if tr != nil {
		// With the recheck worker off, the op runs as four timed steps:
		// the controller absorbs the switch's event, compiles, runs one
		// verifier pass, and the clients receive the notifications.
		tr.timed("rvaas.absorb", id, func() {
			want := sw.TableSeq()
			for w.l.ctl.SnapshotSeq(swID) < want && time.Now().Before(deadline) {
				runtime.Gosched()
			}
		})
		tr.timed("rvaas.compile", id, func() { w.l.ctl.CompiledNetwork() })
		tr.timed("verifier.pass", id, func() { w.l.ctl.RecheckNow() })
		tr.timed("client.deliver", id, func() { fail, wrong = w.collect(i, deadline) })
	} else {
		fail, wrong = w.collect(i, deadline)
	}
	lat := time.Since(t0)
	if tr != nil {
		tr.end(id)
	}
	return outcome{latency: lat, fail: fail, wrong: wrong}
}

// collect reads the notification of every invariant op i flips and checks
// it: the right subscription, the next sequence number, violation on
// install and recovery on removal.
func (w *detectWorkload) collect(i int, deadline time.Time) (fail string, wrong bool) {
	op := w.round[i]
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for k, s := range w.flips[i] {
		var n *wire.Notification
		select {
		case n = <-s.sub.C:
		case <-timer.C:
			return fmt.Sprintf("timeout: %d of %d notifications verified", k, len(w.flips[i])), false
		}
		if n == nil {
			return fmt.Sprintf("missing notification: sub %d channel closed", s.sub.ID), true
		}
		if n.SubID != s.sub.ID {
			return fmt.Sprintf("stray notification: sub %d on sub %d's channel", n.SubID, s.sub.ID), true
		}
		if n.Seq != s.seq+1 {
			return fmt.Sprintf("out-of-sequence notification: sub %d seq %d, want %d", s.sub.ID, n.Seq, s.seq+1), true
		}
		wantEvent, wantStatus := wire.NotifyRecovery, wire.StatusOK
		if op.install {
			wantEvent, wantStatus = wire.NotifyViolation, wire.StatusViolation
		}
		if n.Event != wantEvent || n.Status != wantStatus {
			return fmt.Sprintf("wrong verdict: sub %d got %v/%v, want %v/%v", s.sub.ID, n.Event, n.Status, wantEvent, wantStatus), true
		}
		s.seq = n.Seq
		s.violated = op.install
		w.last, w.lastNote = s, n
	}
	return "", false
}

// probe times each layer on the op just completed: the op's scope from the
// last notified invariant's client, and that notification itself.
func (w *detectWorkload) probe(i int, tr *tracer, p *probes) error {
	op := w.round[i]
	s, n := w.last, w.lastNote
	if s == nil || n == nil {
		return fmt.Errorf("no notification to probe")
	}
	cons := invariantItem(w.l.aps[op.dst], max(op.port, 0)).Constraints
	if op.port == wholeDestination {
		cons = cons[:1]
	}
	parent := tr.begin("probe", 0)
	defer tr.end(parent)
	p.reach(parent, w.l.aps[s.src], cons, headerspace.ReachOptions{})
	p.reachAll(parent, w.l.aps[op.dst], cons)
	if err := p.serviceQuery(parent, s.src, wire.QueryReachableDestinations, cons, ""); err != nil {
		return err
	}
	return p.notification(parent, w.l.agents[s.src], n)
}

// endRound checks no invariant outside the flip sets received anything.
// Every round ends with the network restored, so all verdicts are green.
func (w *detectWorkload) endRound() string { return w.l.strays(w.l.all) }

func (w *detectWorkload) final() string { return w.l.verdictsAgree() }

// guard checks the per-round work counts: every change is absorbed,
// compiled, evaluated and notified.
func (w *detectWorkload) guard(c counters) string {
	switch {
	case c.passiveEvents == 0:
		return "no passive events in a detect round"
	case c.switchCompiles == 0:
		return "no switch compiles in a detect round"
	case c.evaluations == 0:
		return "no evaluations in a detect round"
	case c.notifications == 0:
		return "no notifications in a detect round"
	}
	return ""
}
