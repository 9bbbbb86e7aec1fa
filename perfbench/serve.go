package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/cli"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/server"
	"blaze/internal/session"
	"blaze/internal/trace"
)

// serve-open: internal/server over a session with a shared CLOCK page
// cache holding half the graph's pages, on r2 at 1/8192, driven by an
// open-loop Poisson stream at a constant rate: 3 interactive BFS lookups
// from seeded sources to 1 batch SpMV scan.
const (
	srvGraph      = "r2"
	srvScale      = 8192
	srvReps       = 5
	srvRate       = 40.0 // offered requests per second, fixed for every commit
	srvDeadline   = 250 * time.Millisecond
	srvSources    = 64  // distinct seeded BFS sources
	srvQueueDepth = 64  // cmd/blaze-serve's -queueDepth default
	srvSlots      = 4   // cmd/blaze-serve's -slots default, capped at the core count
	srvTraceS     = 1.0 // traced runs trace the first second of the window only
)

// served is a resident graph behind the serving front end.
type served struct {
	env   *cli.Env
	srv   *server.Server
	cache *pagecache.Cache
}

// openServe builds the service the way cmd/blaze-serve does, with its flag
// defaults (its flag set is private to that command) except for the
// compute workers and slots, capped at the core count, and the page cache,
// sized to half the graph's pages.
func openServe(o opts, base string, tr *trace.Tracer) (*served, error) {
	opt := &cli.Options{
		Engine: "blaze", ComputeWorkers: o.workers, Devices: 1, Profile: "optane",
		PageCachePolicy: "clock", BinCount: 1024, BinningRatio: 0.5,
		MaxIters: 20, Epsilon: 0.001, InterleaveSeed: 1,
		Concurrency: 1, Coalesce: true, DRR: true, RetryMax: -1,
		IndexPath: base + ".gr.index", AdjPath: base + ".gr.adj.0",
	}
	env, err := cli.Setup(opt)
	if err != nil {
		return nil, err
	}
	policy, err := opt.CachePolicy()
	if err != nil {
		env.Close()
		return nil, err
	}
	bytes := env.Out.CSR.NumPages() / 2 * 4096
	cache := pagecache.NewWithPolicy(bytes, policy)
	env.Cache, env.RO.PageCache, env.RO.CacheBytes = cache, cache, bytes
	env.RO.Tracer = tr
	slots := min(srvSlots, o.workers)
	sess, err := session.New(env.Ctx, env.Out, env.In, session.Config{
		Engine:     opt.Engine,
		Base:       env.RO,
		Cache:      env.Cache,
		Seed:       opt.InterleaveSeed,
		MaxQueries: slots,
	})
	if err != nil {
		env.Close()
		return nil, err
	}
	srv := server.New(env.Ctx, sess, server.Config{Slots: slots, QueueDepth: srvQueueDepth})
	return &served{env: env, srv: srv, cache: cache}, nil
}

// arrival is one scheduled request.
type arrival struct {
	dueNs       int64 // offset from the window start
	interactive bool
	src         uint32
}

// schedule draws the arrivals from the seed alone, before the window
// opens: a Poisson stream conditioned on its count, so every seed offers
// exactly srvRate*seconds requests — uniform arrival instants over the
// window, sorted — of which exactly three quarters are interactive.
func schedule(seed uint64, seconds float64, c *graph.CSR) []arrival {
	srcs := pickSources(c, mix(seed, tagSources), srvSources)
	r := gen.NewRNG(mix(seed, tagArrivals))
	n := max(1, int(math.Round(srvRate*seconds)))
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{
			dueNs:       int64(float64(r.Next()>>11) / (1 << 53) * seconds * 1e9),
			interactive: 4*i < 3*n,
			src:         srcs[r.Intn(len(srcs))],
		}
	}
	// Shuffle the classes over the requests, then order by due time.
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i].interactive, out[j].interactive = out[j].interactive, out[i].interactive
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dueNs < out[j].dueNs })
	return out
}

// reply is what one request's body left behind for the answer check.
type reply struct {
	parent        []int32 // BFS parents, narrowed to halve what the run holds
	spmvOK        bool    // SpMV result equalled the reference
	pages, coales int64
	edges         int64
}

func runServeOpen(o opts) (*outcome, error) {
	d, err := generate(srvGraph, srvScale, o.seed, o.work)
	if err != nil {
		return nil, err
	}
	var tr *trace.Tracer
	if o.trace {
		tr = trace.New(trace.Config{})
		tr.SetEnabled(false)
	}
	sv, ss, err := timedSetup(d, srvReps, func(base string) (*served, error) {
		return openServe(o, base, tr)
	}, func(s *served) { s.env.Close() })
	if err != nil {
		return nil, err
	}
	env, srv := sv.env, sv.srv
	defer env.Close()
	c, err := readCSR(ss.base+".gr.index", ss.base+".gr.adj.0")
	if err != nil {
		return nil, err
	}
	plan := schedule(o.seed, o.seconds, c)
	ones := make([]float64, c.V)
	for i := range ones {
		ones[i] = 1
	}
	wantY := algo.RefSpMV(c, ones)

	rec := &calls{}
	replies := make([]reply, len(plan))
	outs := make([]server.Outcome, len(plan))
	body := func(a arrival, rp *reply) session.Body {
		return func(p exec.Proc, q *session.Query) error {
			sys := probe{q.Sys, rec, &rp.edges}
			var err error
			if a.interactive {
				var parent []int64
				parent, err = algo.BFS(sys, p, env.Out, a.src)
				rp.parent = make([]int32, len(parent))
				for v, pa := range parent {
					rp.parent[v] = int32(pa)
				}
			} else {
				var y []float64
				y, err = algo.SpMV(sys, p, env.Out, ones)
				rp.spmvOK = sameVector(y, wantY)
			}
			rp.pages, rp.coales = q.IO.PagesRead(), q.IO.CoalescedPages()
			return err
		}
	}
	request := func(a arrival, rp *reply, done func(server.Outcome)) *server.Request {
		req := &server.Request{Class: server.Batch, Name: "spmv", Body: body(a, rp), OnDone: done}
		if a.interactive {
			req.Class, req.Name, req.TimeoutNs = server.Interactive, "bfs", int64(srvDeadline)
		}
		return req
	}

	res := newOutcome()
	ss.put(res)
	var w *window
	var rejected []bool
	var baseNs, spanNs, lateMax int64
	var cache0, cache1 metrics.CacheStats
	var io0, io1 ioSnap
	var runErr error
	env.Ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		// Warm the cache and the lazy set-up with one request of each
		// class, one at a time, before the window opens.
		for _, a := range []arrival{{interactive: true, src: plan0(plan, c)}, {}} {
			ch := make(chan server.Outcome, 1)
			if err := srv.Submit(p, request(a, &reply{}, func(out server.Outcome) { ch <- out })); err != nil {
				runErr = err
				srv.Drain(p)
				return
			}
			if out := <-ch; out.Err != nil {
				runErr = out.Err
				srv.Drain(p)
				return
			}
		}
		rejected = make([]bool, len(plan))
		cache0 = sv.cache.StatsDetail()
		io0 = snapIO(env.Stats)
		w = openWindow()
		tr.SetEnabled(true)
		baseNs = p.Now()
		for i, a := range plan {
			due := baseNs + a.dueNs
			if tr != nil && float64(a.dueNs) >= srvTraceS*1e9 {
				tr.SetEnabled(false)
			}
			if ahead := due - p.Now(); ahead > 0 {
				time.Sleep(time.Duration(ahead))
			}
			lateMax = max(lateMax, p.Now()-due)
			i := i
			if srv.Submit(p, request(a, &replies[i], func(out server.Outcome) { outs[i] = out })) != nil {
				rejected[i] = true
			}
		}
		srv.Drain(p)
		spanNs = p.Now() - baseNs
		w.stop()
		tr.SetEnabled(false)
		cache1 = sv.cache.StatsDetail()
		io1 = snapIO(env.Stats)
	})
	if runErr != nil {
		return nil, fmt.Errorf("warm-up: %w", runErr)
	}

	// Score every request against the serial references, after the window.
	ref := map[uint32][]int32{}
	pc := newParentCheck(c)
	var opMs, batchMs, waitMs, serviceMs []float64
	var pages, coales int64
	var nRejected, nExpired, nFailed, nLate, nWrong int64
	good := 0
	var tracedNs, tracedEdges int64
	tracedWin := interval{baseNs, baseNs + int64(srvTraceS*1e9)}
	for i, a := range plan {
		res.attempted++
		if rejected[i] {
			nRejected++
			continue
		}
		out, rp := outs[i], replies[i]
		pages += rp.pages
		coales += rp.coales
		waitMs = append(waitMs, float64(out.StartNs-out.ArriveNs)/1e6)
		switch out.Status {
		case server.StatusExpired:
			nExpired++
			continue
		case server.StatusFailed:
			nFailed++
			continue
		case server.StatusLate:
			nLate++
		}
		serviceMs = append(serviceMs, float64(out.EndNs-out.StartNs)/1e6)
		if out.StartNs < tracedWin.hi {
			tracedNs += out.EndNs - out.StartNs
			tracedEdges += rp.edges
		}
		lat := float64(out.EndNs-(baseNs+a.dueNs)) / 1e6
		ok := false
		if a.interactive {
			opMs = append(opMs, lat)
			if ref[a.src] == nil {
				ref[a.src] = algo.RefBFSDepth(c, a.src)
			}
			ok = pc.valid(a.src, rp.parent, ref[a.src])
		} else {
			batchMs = append(batchMs, lat)
			ok = rp.spmvOK
		}
		if !ok {
			nWrong++
			continue
		}
		if out.Status == server.StatusOK {
			good++
		}
	}
	res.failed = nRejected + nExpired + nFailed + nWrong
	res.correct = nWrong == 0 && nFailed == 0
	// Rates are over the serving window: from its opening until the last
	// request finished.
	e2e{ops: len(plan), opMs: opMs, batchMs: batchMs, edges: rec.edgesNow(), good: good, busyS: float64(spanNs) / 1e9,
		cpuS: w.CPUS, allocB: w.AllocBytes, w: w}.put(res)

	l := res.layers
	rec.put(l, len(plan))
	l.set("server.queue_wait_ms_p50", "ms", percentile(waitMs, 50))
	l.set("server.queue_wait_ms_p90", "ms", percentile(waitMs, 90))
	l.set("server.service_ms_p50", "ms", percentile(serviceMs, 50))
	l.set("server.rejected", "count", float64(nRejected))
	l.set("server.expired", "count", float64(nExpired))
	l.set("server.late", "count", float64(nLate))
	l.set("session.coalesced_frac", "frac", ratio(float64(coales), float64(pages+coales)))
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	l.set("pagecache.hit_rate", "frac", ratio(float64(hits), float64(hits+misses)))
	l.set("pagecache.evictions_per_op", "count", ratio(float64(cache1.Evictions-cache0.Evictions), float64(len(plan))))
	l.set("loadgen.late_max_ms", "ms", float64(lateMax)/1e6)
	putIO(l, io0, io1, len(plan))
	if o.trace {
		var st stages
		st.add(tr.Collect(), []interval{tracedWin}, tracedNs)
		st.put(l, tracedEdges)
	}
	res.summary = fmt.Sprintf("%d requests at %.0f/s over |V|=%d |E|=%d: %d rejected, %d expired, %d late, %d wrong",
		len(plan), srvRate, c.V, c.E, nRejected, nExpired, nLate, nWrong)
	return res, nil
}

// plan0 is the warm-up BFS source: the first scheduled one, or any.
func plan0(plan []arrival, c *graph.CSR) uint32 {
	for _, a := range plan {
		if a.interactive {
			return a.src
		}
	}
	return pickSources(c, 0, 1)[0]
}

// parentCheck validates BFS parent arrays against reference depths, as
// algo.CheckParents does: the source is its own parent, unreached vertices
// have none, and every other vertex's parent is one level up with an edge
// to it. Neighbour lists are kept sorted so the edge test is a binary
// search; CheckParents scans the parent's whole list, which on R-MAT hubs
// made checking a run's answers slower than the run.
type parentCheck struct {
	off []int64
	adj []uint32
}

func newParentCheck(c *graph.CSR) parentCheck {
	pc := parentCheck{off: make([]int64, c.V+1), adj: make([]uint32, 0, c.E)}
	for v := uint32(0); v < c.V; v++ {
		b, e := c.EdgeRange(v)
		start := len(pc.adj)
		for i := b; i < e; i++ {
			pc.adj = append(pc.adj, graph.GetEdge(c.Adj, i))
		}
		slices.Sort(pc.adj[start:])
		pc.off[v+1] = int64(len(pc.adj))
	}
	return pc
}

func (pc parentCheck) valid(src uint32, parent, depth []int32) bool {
	if len(parent) != len(depth) {
		return false
	}
	for v, pa := range parent {
		switch d := depth[v]; {
		case uint32(v) == src:
			if pa != int32(src) {
				return false
			}
		case d == -1:
			if pa != -1 {
				return false
			}
		default:
			if pa < 0 || int(pa) >= len(depth) || depth[pa] != d-1 {
				return false
			}
			if _, found := slices.BinarySearch(pc.adj[pc.off[pa]:pc.off[pa+1]], uint32(v)); !found {
				return false
			}
		}
	}
	return true
}

func sameVector(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
