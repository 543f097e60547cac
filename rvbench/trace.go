package main

import (
	"bufio"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/enclave"
	"repro/internal/headerspace"
	"repro/internal/openflow"
	"repro/internal/rvaas"
	"repro/internal/topology"
	"repro/internal/wire"
)

// span is one timed call from the benchmark into a layer. Spans of one op
// share Op; Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent for the current op and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		Start: int64(time.Since(t.t0)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.t0)) }

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// durations returns every span duration by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// childCover is the share of all "op" span time covered by their direct
// children; 1 − childCover is the remainder no child accounts for.
func (t *tracer) childCover() float64 {
	var opTime, childTime time.Duration
	isOp := make(map[int]bool)
	for _, s := range t.spans {
		if s.Name == "op" {
			isOp[s.ID] = true
			opTime += s.dur()
		}
	}
	for _, s := range t.spans {
		if isOp[s.Parent] {
			childTime += s.dur()
		}
	}
	if opTime == 0 {
		return 0
	}
	return float64(childTime) / float64(opTime)
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probes times single calls into each layer on the data of the op just
// completed: its scope, its request and the signed message it produced.
// They run in the traced run only, after the op span has closed.
type probes struct {
	l    *lab
	tr   *tracer
	encl *enclave.Enclave
	root ed25519.PublicKey
	// a, b are a secure channel pair for timing one frame round trip.
	a, b  *openflow.SecureConn
	nonce uint64
}

func newProbes(l *lab, tr *tracer) (*probes, error) {
	encl, err := l.d.Platform.Launch([]byte(rvaas.CodeIdentity))
	if err != nil {
		return nil, fmt.Errorf("launch probe enclave: %w", err)
	}
	ca, err := openflow.NewCA()
	if err != nil {
		return nil, err
	}
	ia, err := openflow.NewIdentity("probe-a")
	if err != nil {
		return nil, err
	}
	ib, err := openflow.NewIdentity("probe-b")
	if err != nil {
		return nil, err
	}
	a, b, err := openflow.ConnectSecure(ia, ca.Issue(ia), ib, ca.Issue(ib), ca.Pub)
	if err != nil {
		return nil, fmt.Errorf("probe channel: %w", err)
	}
	return &probes{l: l, tr: tr, encl: encl, root: l.d.Platform.RootKey(), a: a, b: b, nonce: 1 << 62}, nil
}

func (p *probes) close() {
	p.a.Close()
	p.b.Close()
}

// signed times the enclave, wire, channel and client layers on one signed
// server message: its signing bytes, signature, quote and encoding.
func (p *probes) signed(parent int, signing, sig, quoteBytes, encoded []byte, decode func([]byte) error, verify func() error) error {
	var err error
	p.tr.timed("enclave.sign", parent, func() { p.encl.Sign(signing) })
	key := p.l.ctl.PublicKey()
	p.tr.timed("enclave.quote_verify", parent, func() {
		var q *enclave.Quote
		if q, err = enclave.UnmarshalQuote(quoteBytes); err == nil {
			err = enclave.VerifyKeyQuote(p.root, q, rvaas.Measurement(), key)
		}
	})
	if err != nil {
		return fmt.Errorf("quote verify: %w", err)
	}
	ok := false
	p.tr.timed("enclave.sig_verify", parent, func() { ok = enclave.VerifyFrom(key, signing, sig) })
	if !ok {
		return fmt.Errorf("signature verify failed")
	}
	p.tr.timed("client.verify", parent, func() { err = verify() })
	if err != nil {
		return fmt.Errorf("client verify: %w", err)
	}
	p.tr.timed("wire.codec", parent, func() { err = decode(encoded) })
	if err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	p.tr.timed("openflow.frame", parent, func() {
		if err = p.a.Send(&openflow.PacketOut{InPort: openflow.AnyPort, Actions: []openflow.Action{openflow.Output(1)}, Data: encoded}); err == nil {
			_, err = p.b.Recv()
		}
	})
	if err != nil {
		return fmt.Errorf("frame: %w", err)
	}
	return nil
}

// notification probes one received notification.
func (p *probes) notification(parent int, ag *client.Agent, n *wire.Notification) error {
	return p.signed(parent, n.SigningBytes(), n.Signature, n.Quote, n.Marshal(),
		func(b []byte) error { _, err := wire.UnmarshalNotification(b); return err },
		func() error { return ag.VerifyNotification(n) })
}

// response probes one received query response.
func (p *probes) response(parent int, ag *client.Agent, r *wire.QueryResponse) error {
	return p.signed(parent, r.SigningBytes(), r.Signature, r.Quote, r.Marshal(),
		func(b []byte) error { _, err := wire.UnmarshalQueryResponse(b); return err },
		func() error { return ag.VerifyResponse(r) })
}

// scope builds the header space of a constraint list, as the controller
// does for a query.
func scope(constraints []wire.FieldConstraint) headerspace.Space {
	h := headerspace.AllX(wire.HeaderWidth)
	for _, fc := range constraints {
		if x, err := h.Intersect(wire.FieldHeader(fc.Field, fc.Value, fc.Mask)); err == nil {
			h = x
		}
	}
	return headerspace.NewSpace(wire.HeaderWidth, h)
}

// reach times one traversal from an access point on the compiled network.
func (p *probes) reach(parent int, from topology.AccessPoint, constraints []wire.FieldConstraint, opt headerspace.ReachOptions) {
	net := p.l.ctl.CompiledNetwork()
	sp := scope(constraints)
	p.tr.timed("headerspace.reach", parent, func() {
		net.Reach(headerspace.NodeID(from.Endpoint.Switch), headerspace.PortID(from.Endpoint.Port), sp, opt)
	})
}

// reachAll times the sweep an isolation answer runs: the scope injected at
// every edge port except the requester's.
func (p *probes) reachAll(parent int, at topology.AccessPoint, constraints []wire.FieldConstraint) {
	net := p.l.ctl.CompiledNetwork()
	sp := scope(constraints)
	var points []headerspace.InjectionPoint
	for _, ep := range p.l.d.Topology.EdgePorts() {
		if ep != at.Endpoint {
			points = append(points, headerspace.InjectionPoint{Node: headerspace.NodeID(ep.Switch), Port: headerspace.PortID(ep.Port)})
		}
	}
	p.tr.timed("headerspace.reachall", parent, func() { net.ReachAll(points, sp, headerspace.ReachOptions{}) })
}

// serviceQuery times one in-process query through the controller's service
// stack (auth gate, HSA, in-band auth round, signing) for a client.
func (p *probes) serviceQuery(parent int, src int, kind wire.QueryKind, constraints []wire.FieldConstraint, param string) error {
	ap := p.l.aps[src]
	p.nonce++
	q := &wire.QueryRequest{
		Version: wire.CurrentVersion, Kind: kind, ClientID: ap.ClientID,
		Nonce: p.nonce, Constraints: constraints, Param: param,
	}
	o := rvaas.Origin{
		Switch: ap.Endpoint.Switch, Port: ap.Endpoint.Port, MAC: ap.HostMAC, IP: ap.HostIP,
		Proto: wire.EnvelopeVersion, SessionID: p.l.agents[src].SessionID(),
	}
	done := make(chan *wire.QueryResponse, 1)
	var resp *wire.QueryResponse
	p.tr.timed("rvaas.service_query", parent, func() {
		p.l.ctl.Service().Query(o, q, func(r *wire.QueryResponse) { done <- r })
		select {
		case resp = <-done:
		case <-time.After(opTimeout):
		}
	})
	if resp == nil {
		return fmt.Errorf("in-process query timed out")
	}
	if resp.AuthReplied < resp.AuthRequested {
		return fmt.Errorf("in-process query: auth replied %d < requested %d", resp.AuthReplied, resp.AuthRequested)
	}
	return nil
}
