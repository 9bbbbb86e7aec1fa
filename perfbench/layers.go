package main

import (
	"sort"
	"sync"
	"time"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/metrics"
	"blaze/internal/registry"
	"blaze/internal/trace"
)

// calls records what the engine did, measured from outside it: every
// EdgeMap and VertexMap call made through a probe, with its wall time and
// the engine.Stats the blaze engines keep for their last call. One calls
// value may be shared by the probes of concurrent queries.
type calls struct {
	mu       sync.Mutex
	edgeMaps int64
	emMs     []float64
	smallUs  []float64
	edges    int64
	records  int64
	vmNs     int64
}

// edgesNow returns the edges scanned by every recorded EdgeMap so far.
func (c *calls) edgesNow() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.edges
}

// smallFrontier is the page share under which an EdgeMap call counts as a
// small round: its frontier touches under 1% of the graph's pages.
const smallFrontier = 0.01

// probe wraps an engine's algo.System and reports each call to rec, and
// the edges it scanned to edges when that is non-nil.
type probe struct {
	algo.System
	rec   *calls
	edges *int64
}

func (pr probe) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset, fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {
	t0 := time.Now()
	out, err := pr.System.EdgeMap(p, g, f, fns, output)
	ns := time.Since(t0).Nanoseconds()
	st := lastStats(pr.System)
	pages := g.CSR.NumPages()
	for _, s := range g.Segs {
		pages += s.CSR.NumPages()
	}
	pr.rec.mu.Lock()
	pr.rec.edgeMaps++
	pr.rec.emMs = append(pr.rec.emMs, float64(ns)/1e6)
	if float64(st.PagesRead) < smallFrontier*float64(pages) {
		pr.rec.smallUs = append(pr.rec.smallUs, float64(ns)/1e3)
	}
	pr.rec.edges += st.EdgesScanned
	pr.rec.records += st.Records
	pr.rec.mu.Unlock()
	if pr.edges != nil {
		*pr.edges += st.EdgesScanned
	}
	return out, err
}

func (pr probe) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	t0 := time.Now()
	out := pr.System.VertexMap(p, f, fn)
	ns := time.Since(t0).Nanoseconds()
	pr.rec.mu.Lock()
	pr.rec.vmNs += ns
	pr.rec.mu.Unlock()
	return out
}

// QueryDriver keeps the wrapped engine's driver preference, so queries
// driven through the probe run exactly as on the bare engine.
func (pr probe) QueryDriver() algo.Driver { return algo.DriverFor(pr.System) }

// lastStats reads the counters the blaze engines keep for their most
// recent EdgeMap call (zero for engines that keep none).
func lastStats(s algo.System) engine.Stats {
	switch b := s.(type) {
	case *algo.Blaze:
		return b.LastStats
	case *algo.AsyncBlaze:
		return b.LastStats
	}
	return engine.Stats{}
}

// tracedSystem builds an engine like env's with a new tracer attached
// through registry.Options.Tracer. Every traced proc holds a 160 KB event
// chunk, so the traced runs give each operation its own tracer and fold
// its trace into the totals before the next one.
func tracedSystem(engineName string, env *cli.Env) (algo.System, *trace.Tracer, error) {
	tr := trace.New(trace.Config{})
	ro := env.RO
	ro.Tracer = tr
	sys, err := registry.New(engineName, env.Ctx, ro)
	return sys, tr, err
}

// interval is a half-open span [lo, hi) on one execution clock.
type interval struct{ lo, hi int64 }

// unionLen returns the total length of the union of xs clipped to the
// union of windows; xs and windows are sorted in place.
func unionLen(xs, windows []interval) int64 {
	merge := func(v []interval) []interval {
		sort.Slice(v, func(i, j int) bool { return v[i].lo < v[j].lo })
		var out []interval
		for _, x := range v {
			if x.hi <= x.lo {
				continue
			}
			if n := len(out); n > 0 && x.lo <= out[n-1].hi {
				if x.hi > out[n-1].hi {
					out[n-1].hi = x.hi
				}
				continue
			}
			out = append(out, x)
		}
		return out
	}
	a, w := merge(xs), merge(windows)
	var total int64
	i, j := 0, 0
	for i < len(a) && j < len(w) {
		lo, hi := max(a[i].lo, w[j].lo), min(a[i].hi, w[j].hi)
		if hi > lo {
			total += hi - lo
		}
		if a[i].hi < w[j].hi {
			i++
		} else {
			j++
		}
	}
	return total
}

// stages accumulates the pipeline stage split from traces collected over
// the traced part of a run. Each added trace comes with the windows (on
// the trace's clock) its operations ran in; device utilisation is the
// union of in-flight device reads inside those windows, so overlapping
// requests are counted once and a device is never more than 100% busy.
type stages struct {
	windowNs    int64
	opNs        int64
	phaseNs     [3]int64
	scatterNs   int64
	sinkWaitNs  int64
	scatterLife int64
	ioWaitNs    int64
	ioLife      int64
	gatherNs    int64
	gatherRecs  int64
	fullLenSum  int64
	fullLenN    int64
	devBusy     map[int32]int64
}

// add folds one collected trace into the totals. opNs is the operations'
// own time on the trace's clock, the base of the phase shares.
func (s *stages) add(tr *trace.Trace, windows []interval, opNs int64) {
	if s.devBusy == nil {
		s.devBusy = map[int32]int64{}
	}
	var w int64
	for _, x := range windows {
		w += x.hi - x.lo
	}
	s.windowNs += w
	s.opNs += opNs
	reads := map[int32][]interval{}
	for _, p := range tr.Procs {
		if len(p.Events) == 0 {
			continue
		}
		lo, hi := p.Events[0].Start, p.Events[0].End()
		for _, e := range p.Events {
			lo, hi = min(lo, e.Start), max(hi, e.End())
			switch e.Op {
			case trace.OpPhase:
				if e.Arg >= 0 && int(e.Arg) < len(s.phaseNs) {
					s.phaseNs[e.Arg] += e.Dur
				}
			case trace.OpDevRead:
				reads[e.Dev] = append(reads[e.Dev], interval{e.Start, e.End()})
			case trace.OpIOWait:
				s.ioWaitNs += e.Dur
			case trace.OpSinkWait:
				if p.Stage == trace.StageScatter {
					s.sinkWaitNs += e.Dur
				}
			case trace.OpSinkBuf:
				if p.Stage == trace.StageScatter {
					s.scatterNs += e.Dur
				}
			case trace.OpGatherBin:
				s.gatherNs += e.Dur
				s.gatherRecs += e.Arg
			case trace.OpFullLen:
				s.fullLenSum += e.Arg
				s.fullLenN++
			}
		}
		switch p.Stage {
		case trace.StageIO:
			s.ioLife += hi - lo
		case trace.StageScatter:
			s.scatterLife += hi - lo
		}
	}
	for dev, xs := range reads {
		s.devBusy[dev] += unionLen(xs, append([]interval(nil), windows...))
	}
}

// util returns the busiest device's utilisation over the traced windows.
func (s *stages) util() float64 {
	var busiest int64
	for _, b := range s.devBusy {
		busiest = max(busiest, b)
	}
	return ratio(float64(busiest), float64(s.windowNs))
}

// put writes the stage metrics; edges is the number of edges scanned by
// the traced operations.
func (s *stages) put(m metricSet, edges int64) {
	var phases int64
	for _, ns := range s.phaseNs {
		phases += ns
	}
	m.set("engine.scatter_ns_per_edge", "ns", ratio(float64(s.scatterNs), float64(edges)))
	m.set("engine.gather_ns_per_record", "ns", ratio(float64(s.gatherNs), float64(s.gatherRecs)))
	m.set("pipeline.io_wait_frac", "frac", ratio(float64(s.ioWaitNs), float64(s.ioLife)))
	m.set("pipeline.sink_wait_frac", "frac", ratio(float64(s.sinkWaitNs), float64(s.scatterLife)))
	m.set("bin.queue_mean", "count", ratio(float64(s.fullLenSum), float64(s.fullLenN)))
	m.set("engine.phase_source_frac", "frac", ratio(float64(s.phaseNs[trace.PhaseSource]), float64(s.opNs)))
	m.set("engine.phase_pipeline_frac", "frac", ratio(float64(s.phaseNs[trace.PhasePipeline]), float64(s.opNs)))
	m.set("engine.phase_merge_frac", "frac", ratio(float64(s.phaseNs[trace.PhaseMerge]), float64(s.opNs)))
	other := 0.0
	if s.opNs > 0 {
		other = 1 - float64(phases)/float64(s.opNs)
	}
	m.set("engine.other_frac", "frac", other)
	m.set("ssd.util", "frac", s.util())
}

// put writes the engine/algo call metrics over ops operations.
func (c *calls) put(m metricSet, ops int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m.set("engine.edgemap_calls_per_op", "count", ratio(float64(c.edgeMaps), float64(ops)))
	m.set("engine.edgemap_ms_p50", "ms", median(c.emMs))
	m.set("engine.small_round_us_p50", "us", median(c.smallUs))
	m.set("engine.edges_per_call", "count", ratio(float64(c.edges), float64(c.edgeMaps)))
	m.set("engine.records_per_edge", "count", ratio(float64(c.records), float64(c.edges)))
	m.set("algo.vertexmap_ms_per_op", "ms", ratio(float64(c.vmNs)/1e6, float64(ops)))
}

// ioSnap is a point-in-time copy of the device counters.
type ioSnap struct{ bytes, pages, requests, retries int64 }

func snapIO(s *metrics.IOStats) ioSnap {
	return ioSnap{s.TotalBytes(), s.PagesRead(), s.Requests(), s.Retries()}
}

// plus returns a with the counters accumulated from from to to added.
func (a ioSnap) plus(from, to ioSnap) ioSnap {
	return ioSnap{a.bytes + to.bytes - from.bytes, a.pages + to.pages - from.pages,
		a.requests + to.requests - from.requests, a.retries + to.retries - from.retries}
}

// putIO writes the device-side counters accumulated between a and b.
func putIO(m metricSet, a, b ioSnap, ops int) {
	m.set("ssd.read_mb_per_op", "MB", ratio(float64(b.bytes-a.bytes)/1e6, float64(ops)))
	m.set("ssd.pages_per_request", "count", ratio(float64(b.pages-a.pages), float64(b.requests-a.requests)))
	m.set("ssd.retries", "count", float64(b.retries-a.retries))
}
