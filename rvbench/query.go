package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/client"
	"repro/internal/headerspace"
	"repro/internal/wire"
)

// queryMix is one round's query mix. Latencies cluster by kind: path-length
// and waypoint answers need no auth round, reachable-destinations
// authenticates one endpoint and isolation fifteen. With the two fast kinds
// at exactly half the ops, the median fell between clusters and moved by a
// sixth from run to run; at a third fast, a third reachable and a third
// isolation, it sits inside the reachable-destinations cluster.
var queryMix = []struct {
	kind  wire.QueryKind
	count int
}{
	{wire.QueryReachableDestinations, 32},
	{wire.QueryPathLength, 16},
	{wire.QueryWaypointAvoidance, 16},
	{wire.QueryIsolation, 32},
}

// queryOp is one in-band query from client src. dst is the queried
// destination (unused by isolation, which asks who reaches src); bound is
// the path-length limit, alternately the oracle's switch count (holds) and
// one less (fails).
type queryOp struct {
	src, dst int
	kind     wire.QueryKind
	bound    int
}

func (op queryOp) constraints(w *queryWorkload) []wire.FieldConstraint {
	target := w.l.aps[op.dst]
	if op.kind == wire.QueryIsolation {
		target = w.l.aps[op.src]
	}
	return []wire.FieldConstraint{{Field: wire.FieldIPDst, Value: uint64(target.HostIP), Mask: 0xFFFFFFFF}}
}

func (op queryOp) param() string {
	switch op.kind {
	case wire.QueryPathLength:
		return strconv.Itoa(op.bound)
	case wire.QueryWaypointAvoidance:
		return absentRegion
	}
	return ""
}

// queryWorkload issues single in-band queries from random clients on the
// static network; the 9,600 standing invariants stay registered and idle.
type queryWorkload struct {
	l     *lab
	o     *oracle
	round []queryOp
	last  *wire.QueryResponse
}

func newQueryWorkload(l *lab, o *oracle, seed int64) *queryWorkload {
	rng := rand.New(rand.NewSource(seed))
	n := len(l.aps)
	var ops []queryOp
	for _, m := range queryMix {
		for i := 0; i < m.count; i++ {
			src := rng.Intn(n)
			op := queryOp{src: src, dst: (src + 1 + rng.Intn(n-1)) % n, kind: m.kind}
			if m.kind == wire.QueryPathLength {
				op.bound = o.switchCount(op.src, op.dst) - i%2
			}
			ops = append(ops, op)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return &queryWorkload{l: l, o: o, round: ops}
}

func (w *queryWorkload) ops() int { return len(w.round) }

func (w *queryWorkload) run(i int, tr *tracer) outcome {
	op := w.round[i]
	cons := op.constraints(w)
	id := 0
	if tr != nil {
		id = tr.begin("op", 0)
	}
	t0 := time.Now()
	resp, err := w.l.agents[op.src].Query(op.kind, cons, op.param())
	lat := time.Since(t0)
	if tr != nil {
		tr.end(id)
	}
	w.last = resp
	switch {
	case errors.Is(err, client.ErrTimeout):
		return outcome{latency: lat, fail: "timeout"}
	case errors.Is(err, client.ErrBadSignature), errors.Is(err, client.ErrBadAttestaton):
		return outcome{latency: lat, fail: "bad signature: " + err.Error(), wrong: true}
	case err != nil:
		return outcome{latency: lat, fail: err.Error()}
	}
	if reason := w.o.checkQuery(op, resp); reason != "" {
		return outcome{latency: lat, fail: reason, wrong: true}
	}
	return outcome{latency: lat}
}

// probe times each layer on the query just answered. The write-path spans
// (absorb, compile, pass, deliver) are read on the idle path a query
// leaves them on: nothing to absorb, a compile-cache hit, an empty pass and
// no notification pending at the querying client.
func (w *queryWorkload) probe(i int, tr *tracer, p *probes) error {
	op := w.round[i]
	cons := op.constraints(w)
	parent := tr.begin("probe", 0)
	defer tr.end(parent)
	opt := headerspace.ReachOptions{KeepLoops: op.kind == wire.QueryPathLength}
	if op.kind == wire.QueryIsolation {
		p.reachAll(parent, w.l.aps[op.src], cons)
	} else {
		p.reach(parent, w.l.aps[op.src], cons, opt)
	}
	if err := p.serviceQuery(parent, op.src, op.kind, cons, op.param()); err != nil {
		return err
	}
	if w.last == nil {
		return fmt.Errorf("no response to probe")
	}
	if err := p.response(parent, w.l.agents[op.src], w.last); err != nil {
		return err
	}
	sw := w.l.aps[op.src].Endpoint.Switch
	tr.timed("rvaas.absorb", parent, func() { w.l.ctl.SnapshotSeq(sw) })
	tr.timed("rvaas.compile", parent, func() { w.l.ctl.CompiledNetwork() })
	tr.timed("verifier.pass", parent, func() { w.l.ctl.RecheckNow() })
	stray := ""
	tr.timed("client.deliver", parent, func() { stray = w.l.strays(w.l.subsOf(op.src)) })
	if stray != "" {
		return fmt.Errorf("%s", stray)
	}
	return nil
}

// endRound checks the idle invariants received nothing.
func (w *queryWorkload) endRound() string { return w.l.strays(w.l.all) }

func (w *queryWorkload) final() string { return w.l.verdictsAgree() }

// guard checks the per-round work counts: a query does auth rounds and
// leaves the snapshot and the verifier untouched.
func (w *queryWorkload) guard(c counters) string {
	switch {
	case c.authRequested == 0:
		return "no auth targets in a query round"
	case c.passiveEvents != 0 || c.switchCompiles != 0 || c.evaluations != 0 || c.notifications != 0:
		return "a query round wrote the snapshot or ran the verifier"
	}
	return ""
}
