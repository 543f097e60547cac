// Command rvbench is the repository's benchmark. It brings up an in-process
// RVaaS lab — FatTree(4), all-pairs routing, protocol-v2 agents, 9,600
// standing reachability invariants — and drives one seeded workload through
// public functions only, checking every answer against an oracle computed
// from the wiring plan. The last line of standard output is a JSON result:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1.
//
//	bash rvbench/run.sh --workload query --seed 1 --seconds 20 --trace 0
//
// See rvbench/README.md for the workloads, metrics and reference figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many labs an untraced run brings up; setup_s is their
// median, so one slow bring-up does not move the figure.
const setupReps = 3

// procs is the benchmark's GOMAXPROCS. On a shared 2-vCPU host, a program
// keeping both vCPUs busy sees several times the CPU steal of one keeping
// a single vCPU busy, and a multi-millisecond op's wall latency grows with
// it: detect-narrow's median moved by a quarter between runs at two procs
// and by 3% at one. One proc measures the program's serial cost per op;
// parallel speedups do not show.
const procs = 1

// roundsPerSecond sizes a run: --seconds × this many whole rounds, about
// that many seconds of ops on one core at low CPU steal. The op count is
// fixed by the flags, never by the wall clock, so every run of a seed does
// the same work whatever the machine's load: query 384 ops, detect-narrow
// 64 and detect-wide 4 per second of run.
var roundsPerSecond = map[string]float64{"query": 4, "detect-narrow": 4, "detect-wide": 1}

func roundsFor(workload string, seconds float64) int {
	return max(1, int(math.Round(seconds*roundsPerSecond[workload])))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// workload is one seeded op stream against a lab. Ops come in rounds: a
// run repeats the same round a fixed number of times, so every run of one
// seed attempts whole rounds of the same ops.
type workload interface {
	ops() int
	// run executes op i of the round; tr is nil in untraced runs.
	run(i int, tr *tracer) outcome
	// probe times each layer on op i's data (traced runs only).
	probe(i int, tr *tracer, p *probes) error
	// endRound and final check what single ops cannot: stray
	// notifications, and every verdict green at the end.
	endRound() string
	final() string
	// guard checks one round's work counts are above zero where the
	// workload's definition says work happens.
	guard(c counters) string
}

type outcome struct {
	latency time.Duration
	fail    string
	// wrong marks a failure that is a wrong answer rather than a timeout.
	wrong bool
}

// phase is the record of one measured op phase.
type phase struct {
	lat       []float64 // ms, ops that succeeded
	attempted int
	failed    int
	wrong     bool
	reasons   []string
	work      counters
	roundWork []counters
	cpu       time.Duration
	rt        runtimeSample
}

func (ph *phase) fail(reason string, wrong bool) {
	ph.failed++
	ph.wrong = ph.wrong || wrong
	ph.reasons = append(ph.reasons, reason)
}

// runPhase runs the workload's round the given number of times. In a
// traced run the work counters are summed over the ops alone,
// so the probes' own queries do not count.
func runPhase(l *lab, w workload, rounds int, tr *tracer, p *probes) *phase {
	ph := &phase{}
	cpu0, rt0, c0 := processCPU(), readRuntime(), l.counters()
	for round := 0; round < rounds; round++ {
		rc := l.counters()
		var traced counters
		for i := 0; i < w.ops(); i++ {
			var before counters
			if tr != nil {
				tr.op++
				before = l.counters()
			}
			o := w.run(i, tr)
			if tr != nil {
				traced = traced.add(l.counters().sub(before))
			}
			ph.attempted++
			if o.fail != "" {
				ph.fail(o.fail, o.wrong)
				continue
			}
			ph.lat = append(ph.lat, ms(o.latency))
			if tr != nil {
				if err := w.probe(i, tr, p); err != nil {
					ph.fail("probe: "+err.Error(), true)
				}
			}
		}
		if reason := w.endRound(); reason != "" {
			ph.fail(reason, true)
		}
		work := l.counters().sub(rc)
		if tr != nil {
			work = traced
		}
		ph.roundWork = append(ph.roundWork, work)
		ph.work = ph.work.add(work)
	}
	ph.cpu = processCPU() - cpu0
	rt1 := readRuntime()
	ph.rt = runtimeSample{
		allocBytes: rt1.allocBytes - rt0.allocBytes,
		gcCycles:   rt1.gcCycles - rt0.gcCycles,
		gcCPU:      rt1.gcCPU - rt0.gcCPU,
		totalCPU:   rt1.totalCPU - rt0.totalCPU,
	}
	if tr == nil {
		ph.work = l.counters().sub(c0)
	}
	return ph
}

// check applies the no-op guard and the end-of-run checks to a phase.
func (ph *phase) check(w workload) {
	for i, rw := range ph.roundWork {
		if reason := w.guard(rw); reason != "" {
			ph.fail("no-op guard: "+reason, true)
			return
		}
		if i > 0 && rw != ph.roundWork[0] {
			ph.fail(fmt.Sprintf("work counts differ between rounds: round 1 %s, round %d %s",
				ph.roundWork[0].perOp(w.ops()), i+1, rw.perOp(w.ops())), true)
			return
		}
	}
	if reason := w.final(); reason != "" {
		ph.fail(reason, true)
	}
}

// merge folds a warm-up round's failures into the measured phase.
func (ph *phase) merge(warm *phase) {
	ph.attempted += warm.attempted
	ph.failed += warm.failed
	ph.wrong = ph.wrong || warm.wrong
	ph.reasons = append(ph.reasons, warm.reasons...)
}

func newWorkload(name string, l *lab, seed int64) workload {
	switch name {
	case "query":
		return newQueryWorkload(l, newOracle(l.d.Topology, l.aps), seed)
	case "detect-narrow":
		return newDetectWorkload(l, seed, false)
	case "detect-wide":
		return newDetectWorkload(l, seed, true)
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "query, detect-narrow or detect-wide")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal seconds of ops per run (sets the op count)")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "rvbench"), "directory for span files")
	flag.Parse()
	cfg.trace = trace == 1
	runtime.GOMAXPROCS(procs)
	if cfg.workload != "query" && cfg.workload != "detect-narrow" && cfg.workload != "detect-wide" {
		fmt.Fprintf(os.Stderr, "rvbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "rvbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	stat0 := readCPUStat()
	var res *result
	var err error
	if cfg.trace {
		res, err = tracedRun(cfg)
	} else {
		res, err = untracedRun(cfg)
	}
	fmt.Printf("env: nproc=%d gomaxprocs=%d go=%s transport=inproc steal=%s workload=%s seed=%d trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), stealShare(stat0, readCPUStat()), cfg.workload, cfg.seed, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// report prints a phase's failures and per-op work and returns the result
// skeleton.
func report(ph *phase, ops int) *result {
	for i, r := range ph.reasons {
		if i == 20 {
			fmt.Printf("failure: ... %d more\n", len(ph.reasons)-i)
			break
		}
		fmt.Println("failure:", r)
	}
	fmt.Printf("ops: attempted=%d failed=%d\n", ph.attempted, ph.failed)
	fmt.Printf("work per op: %s\n", ph.work.perOp(ops))
	return &result{Correct: !ph.wrong, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
}

func untracedRun(cfg config) (*result, error) {
	var setups []float64
	var l *lab
	for i := 0; i < setupReps; i++ {
		forceGC()
		next, st, err := newLab(false)
		if err != nil {
			return nil, err
		}
		fmt.Printf("setup %d: deploy=%.3fs subscribe=%.3fs cpu=%.3fs\n", i+1, st.deploy.Seconds(), st.subscribe.Seconds(), st.cpu.Seconds())
		setups = append(setups, st.total().Seconds())
		if i < setupReps-1 {
			next.close()
		} else {
			l = next
		}
	}
	defer l.close()
	w := newWorkload(cfg.workload, l, cfg.seed)
	warm := runPhase(l, w, 1, nil, nil)
	forceGC()
	ph := runPhase(l, w, roundsFor(cfg.workload, float64(cfg.seconds)), nil, nil)
	ph.check(w)
	ops := ph.attempted
	ph.merge(warm)
	forceGC()
	heap := liveHeapMB()

	res := report(ph, ops)
	if p, ok := tailPercentile(len(ph.lat)); ok {
		fmt.Printf("tail: op_tail_ms=%.4f at p%g (n=%d)\n", percentile(ph.lat, p), p, len(ph.lat))
	} else {
		fmt.Printf("tail: n=%d is below 40 samples; median only\n", len(ph.lat))
	}
	res.Metrics["op_p50_ms"] = metric{median(ph.lat), "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{ms(ph.cpu) / float64(max(ops, 1)), "ms"}
	res.Metrics["heap_live_mb"] = metric{heap, "MB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}

// tracedRun measures the same seeded ops twice, each on a fresh lab: first
// untraced for the tracing-overhead baseline and the runtime counters, then
// traced with the recheck worker off so each detect op runs as timed
// absorb, compile, pass and deliver steps, with a probe of every layer
// after each op.
func tracedRun(cfg config) (*result, error) {
	half := roundsFor(cfg.workload, float64(cfg.seconds)/2)
	var deploys, subscribes, cpus []float64
	record := func(st setupTimes) {
		deploys = append(deploys, st.deploy.Seconds())
		subscribes = append(subscribes, st.subscribe.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
	}

	l1, st, err := newLab(false)
	if err != nil {
		return nil, err
	}
	record(st)
	w1 := newWorkload(cfg.workload, l1, cfg.seed)
	warm := runPhase(l1, w1, 1, nil, nil)
	forceGC()
	base := runPhase(l1, w1, half, nil, nil)
	base.check(w1)
	baseOps := base.attempted
	base.merge(warm)
	l1.close()

	forceGC()
	l2, st, err := newLab(true)
	if err != nil {
		return nil, err
	}
	defer l2.close()
	record(st)
	w2 := newWorkload(cfg.workload, l2, cfg.seed)
	p, err := newProbes(l2, newTracer())
	if err != nil {
		return nil, err
	}
	defer p.close()
	warm = runPhase(l2, w2, 1, p.tr, p)
	tr := newTracer()
	p.tr = tr
	ph := runPhase(l2, w2, half, tr, p)
	ph.check(w2)
	ops := ph.attempted
	ph.merge(warm)
	ph.merge(base)

	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)

	res := report(ph, ops)
	m := res.Metrics
	dur := tr.durations()
	medUS := func(name string) float64 { return us(medianDur(dur[name])) }
	medMS := func(name string) float64 { return ms(medianDur(dur[name])) }
	perOp := func(v uint64) float64 { return float64(v) / float64(max(ops, 1)) }

	m["headerspace.reach_us"] = metric{medUS("headerspace.reach"), "us"}
	m["headerspace.reachall_ms"] = metric{medMS("headerspace.reachall"), "ms"}
	m["rvaas.service_query_us"] = metric{medUS("rvaas.service_query"), "us"}
	m["rvaas.auth_targets_per_op"] = metric{perOp(ph.work.authRequested), "count/op"}
	m["rvaas.absorb_us"] = metric{medUS("rvaas.absorb"), "us"}
	m["rvaas.compile_us"] = metric{medUS("rvaas.compile"), "us"}
	m["rvaas.switch_compiles_per_op"] = metric{perOp(ph.work.switchCompiles), "count/op"}
	m["rvaas.passive_events_per_op"] = metric{perOp(ph.work.passiveEvents), "count/op"}
	m["rvaas.notifications_per_op"] = metric{perOp(ph.work.notifications), "count/op"}
	m["verifier.pass_ms"] = metric{medMS("verifier.pass"), "ms"}
	m["verifier.examined_per_op"] = metric{perOp(ph.work.examined), "count/op"}
	m["verifier.evals_per_op"] = metric{perOp(ph.work.evaluations), "count/op"}
	m["verifier.transitions_per_op"] = metric{perOp(ph.work.transitions), "count/op"}
	useful := 0.0
	if ph.work.evaluations > 0 {
		useful = float64(ph.work.transitions) / float64(ph.work.evaluations)
	}
	m["verifier.useful_eval_ratio"] = metric{useful, "ratio"}
	m["enclave.sign_us"] = metric{medUS("enclave.sign"), "us"}
	m["enclave.quote_verify_us"] = metric{medUS("enclave.quote_verify"), "us"}
	m["enclave.sig_verify_us"] = metric{medUS("enclave.sig_verify"), "us"}
	m["client.verify_us"] = metric{medUS("client.verify"), "us"}
	m["client.deliver_ms"] = metric{medMS("client.deliver"), "ms"}
	m["wire.codec_us"] = metric{medUS("wire.codec"), "us"}
	m["openflow.frame_us"] = metric{medUS("openflow.frame"), "us"}
	m["deploy.new_s"] = metric{median(deploys), "s"}
	m["client.batch_subscribe_s"] = metric{median(subscribes), "s"}
	m["runtime.setup_cpu_s"] = metric{median(cpus), "s"}
	m["runtime.alloc_kb_per_op"] = metric{base.rt.allocBytes / 1024 / float64(baseOps), "KB/op"}
	m["runtime.gc_cycles_per_op"] = metric{base.rt.gcCycles / float64(baseOps), "count/op"}
	gcShare := 0.0
	if base.rt.totalCPU > 0 {
		gcShare = base.rt.gcCPU / base.rt.totalCPU
	}
	m["runtime.gc_cpu_share"] = metric{gcShare, "ratio"}
	m["client.gaps"] = metric{float64(ph.work.gaps + base.work.gaps), "count"}
	m["client.dropped"] = metric{float64(ph.work.dropped + base.work.dropped), "count"}
	m["client.resumes"] = metric{float64(ph.work.resumes + base.work.resumes), "count"}
	traced, untraced := median(ph.lat), median(base.lat)
	m["trace.op_p50_ms"] = metric{traced, "ms"}
	m["trace.untraced_op_p50_ms"] = metric{untraced, "ms"}
	overhead := 0.0
	if untraced > 0 {
		overhead = 100 * (traced/untraced - 1)
	}
	m["trace.overhead_pct"] = metric{overhead, "%"}
	m["trace.child_cover"] = metric{tr.childCover(), "ratio"}
	fmt.Printf("trace: traced op p50 %.4f ms, untraced %.4f ms, overhead %+.1f%%, children cover %.3f of op time\n",
		traced, untraced, overhead, tr.childCover())
	var names []string
	for name := range dur {
		names = append(names, fmt.Sprintf("%s=%d", name, len(dur[name])))
	}
	fmt.Printf("span counts: %s\n", strings.Join(names, " "))
	return res, nil
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
