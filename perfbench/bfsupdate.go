package main

import (
	"fmt"
	"strconv"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/cli"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/trace"
)

// bfs-update: edge insertions beside incremental BFS and WCC repair on
// the sk crawl graph at 1/2048. Each operation inserts one batch through
// engine.Dynamic, seals it, repairs BFS depths and WCC labels, and every
// updCompactEvery batches compacts. Operations run in cycles of updCycle
// batches from the freshly opened base graph, so the graph a run ends on
// is fixed by the seed, not by how many batches fit in the window.
const (
	updGraph        = "sk"
	updScale        = 2048
	updReps         = 3
	updBatchFrac    = 0.001                // of |E| per batch
	updCompactEvery = 5                    // a fifth of the batches compact, so op_p90_ms sits among them
	updCycle        = 12 * updCompactEvery // ends on a compaction
)

// updState is one cycle's graph, engine and incremental answers.
type updState struct {
	env *cli.Env
	opt *cli.Options
	dy  *engine.Dynamic
	bfs *algo.IncBFS
	wcc *algo.IncWCC
}

func openUpdate(o opts, base string) (*cli.Env, *cli.Options, error) {
	opt := cliOptions("bfs", false, "-computeWorkers", strconv.Itoa(o.workers),
		"-inIndexFilename", base+".tgr.index", "-inAdjFilenames", base+".tgr.adj.0",
		base+".gr.index", base+".gr.adj.0")
	env, err := cli.Setup(opt)
	if err != nil {
		return nil, nil, err
	}
	// Compaction flattens base plus segments, so the base adjacency stays
	// in memory beside the on-disk array.
	if err := graph.ReadAdj(opt.AdjPath, env.Out.CSR); err != nil {
		env.Close()
		return nil, nil, err
	}
	if err := graph.ReadAdj(opt.InAdj, env.In.CSR); err != nil {
		env.Close()
		return nil, nil, err
	}
	return env, opt, nil
}

// start wraps the opened graph for mutation and converges the initial
// answers (not timed).
func (s *updState) start(src uint32) error {
	s.dy = engine.NewDynamic(s.env.Ctx, s.env.Out, s.env.In, s.env.RO.Profile, s.env.Stats, nil, s.env.Cache, s.env.RO.DevOpts...)
	var err error
	s.env.Ctx.Run("main", func(p exec.Proc) {
		if s.bfs, _, err = algo.NewIncBFS(s.env.Sys, p, s.env.Out, src); err != nil {
			return
		}
		s.wcc, _, err = algo.NewIncWCC(s.env.Sys, p, s.env.Out, s.env.In)
	})
	return err
}

func runBFSUpdate(o opts) (*outcome, error) {
	d, err := generate(updGraph, updScale, o.seed, o.work)
	if err != nil {
		return nil, err
	}
	type opened struct {
		env *cli.Env
		opt *cli.Options
	}
	first, ss, err := timedSetup(d, updReps, func(base string) (opened, error) {
		env, opt, err := openUpdate(o, base)
		return opened{env, opt}, err
	}, func(v opened) { v.env.Close() })
	if err != nil {
		return nil, err
	}

	// Inserted edges join uniformly random endpoints, as the repository's
	// ingest snapshot draws them: each batch then shortcuts the crawl a
	// statistically similar amount whatever the seed. The same stream
	// replays every cycle.
	batch := int(updBatchFrac * float64(d.preset.E))
	us, ud := make([]uint32, batch*updCycle), make([]uint32, batch*updCycle)
	r := gen.NewRNG(mix(o.seed, tagUpdates))
	for i := range us {
		us[i], ud[i] = uint32(r.Intn(int(d.preset.V))), uint32(r.Intn(int(d.preset.V)))
	}
	src := pickSources(first.env.Out.CSR, mix(o.seed, tagSources), 1)[0]

	res := newOutcome()
	ss.put(res)
	rec := &calls{}
	var st stages
	var opMs, sealMs, compactMs, repairMs, repairRounds []float64
	var busy float64
	var tracedEdges int64
	segMax, good, cycles := 0, 0, 0
	io0 := snapIO(first.env.Stats)
	var ioSum ioSnap
	s := &updState{env: first.env, opt: first.opt}
	w := openWindow()
	var lastCycle time.Duration
	for cycles == 0 || time.Since(w.start)+lastCycle/2 < time.Duration(o.seconds*float64(time.Second)) {
		c0 := time.Now()
		if s.env == nil {
			if s.env, s.opt, err = openUpdate(o, ss.base); err != nil {
				return nil, err
			}
			io0 = snapIO(s.env.Stats)
		}
		if err := s.start(src); err != nil {
			return nil, err
		}
		cycleOK := true
		for b := 0; b < updCycle; b++ {
			sys := s.env.Sys
			var tr *trace.Tracer
			if o.trace {
				if sys, tr, err = tracedSystem(s.opt.Engine, s.env); err != nil {
					return nil, err
				}
			}
			psys := probe{sys, rec, nil}
			var opErr error
			var win interval
			var ut updTimes
			edgesBefore := rec.edgesNow()
			dur := w.measure(func() {
				s.env.Ctx.Run("main", func(p exec.Proc) {
					win.lo = p.Now()
					ut, opErr = s.update(p, psys, us[b*batch:(b+1)*batch], ud[b*batch:(b+1)*batch], b)
					win.hi = p.Now()
				})
			})
			res.attempted++
			if opErr != nil {
				cycleOK = false
			}
			busy += dur.Seconds()
			opMs = append(opMs, float64(dur)/1e6)
			sealMs = append(sealMs, float64(ut.seal)/1e6)
			repairMs = append(repairMs, float64(ut.repair)/1e6)
			repairRounds = append(repairRounds, float64(ut.rounds))
			if ut.compact > 0 {
				compactMs = append(compactMs, float64(ut.compact)/1e6)
			}
			segMax = max(segMax, s.dy.Segments())
			if tr != nil {
				st.add(tr.Collect(), []interval{win}, win.hi-win.lo)
				tracedEdges += rec.edgesNow() - edgesBefore
			}
		}
		// Check the cycle's final answers against serial references over
		// the compacted graph; a mismatch fails every batch of the cycle.
		if cycleOK && !s.answersMatch(src) {
			cycleOK = false
		}
		if cycleOK {
			good += updCycle
		} else {
			res.failed += updCycle
			res.correct = false
		}
		ioSum = ioSum.plus(io0, snapIO(s.env.Stats))
		s.env.Close()
		s.env = nil
		cycles++
		lastCycle = time.Since(c0)
	}
	w.stop()

	ops := len(opMs)
	// The edges this workload processes are the inserted ones: edges_per_s
	// counts edges inserted, sealed and answered per second of operation.
	e2e{ops: ops, opMs: opMs, batchMs: opMs, edges: int64(ops * batch), good: good, busyS: busy,
		cpuS: w.OpCPUS, allocB: w.OpAllocBytes, w: w}.put(res)
	rec.put(res.layers, ops)
	putIO(res.layers, ioSnap{}, ioSum, ops)
	res.layers.set("dynamic.seal_ms", "ms", median(sealMs))
	res.layers.set("dynamic.compact_ms", "ms", median(compactMs))
	res.layers.set("dynamic.segments_max", "count", float64(segMax))
	res.layers.set("algo.repair_ms_p50", "ms", median(repairMs))
	res.layers.set("algo.repair_rounds_p50", "count", median(repairRounds))
	if o.trace {
		st.put(res.layers, tracedEdges)
	}
	res.summary = fmt.Sprintf("%d batches of %d edges in %d cycles over |V|=%d |E|=%d, %.3g updates/s",
		ops, batch, cycles, d.preset.V, d.preset.E, ratio(float64(ops*batch), busy))
	return res, nil
}

// updTimes is what one operation spent where.
type updTimes struct {
	seal, repair, compact time.Duration // compact is 0 when the batch did not compact
	rounds                int           // BFS plus WCC driver rounds
}

// update is one operation: insert, seal, repair both answers, and compact
// on every updCompactEvery-th batch of the cycle.
func (s *updState) update(p exec.Proc, sys algo.System, bs, bd []uint32, b int) (updTimes, error) {
	var ut updTimes
	t0 := time.Now()
	for i := range bs {
		if err := s.dy.Add(bs[i], bd[i]); err != nil {
			return ut, err
		}
	}
	es, ed := s.dy.Seal()
	t1 := time.Now()
	r1, err := s.bfs.Repair(sys, p, s.env.Out, es, ed)
	if err != nil {
		return ut, err
	}
	r2, err := s.wcc.Repair(sys, p, s.env.Out, s.env.In, es, ed)
	if err != nil {
		return ut, err
	}
	t2 := time.Now()
	ut.seal, ut.repair, ut.rounds = t1.Sub(t0), t2.Sub(t1), r1+r2
	if (b+1)%updCompactEvery == 0 {
		if err := s.dy.Compact(); err != nil {
			return ut, err
		}
		ut.compact = time.Since(t2)
	}
	return ut, nil
}

// answersMatch compares the repaired depths and labels bit for bit with
// serial BFS and union-find over the compacted graph.
func (s *updState) answersMatch(src uint32) bool {
	c := s.env.Out.CSR
	if len(s.env.Out.Segs) != 0 {
		return false
	}
	depth := algo.RefBFSDepth(c, src)
	for v := range depth {
		if depth[v] != s.bfs.Depth[v] {
			return false
		}
	}
	ids := algo.RefWCC(c)
	for v := range ids {
		if ids[v] != s.wcc.IDs[v] {
			return false
		}
	}
	return true
}
