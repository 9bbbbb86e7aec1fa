package main

import (
	"fmt"
	"strconv"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
	"blaze/internal/trace"
)

// sim-paper: PageRank-delta capped at simIters iterations on r2 at 1/2048
// under the virtual-time backend, in the paper's configuration (bin/pr
// -sim defaults: 16 compute workers, one Optane device, no page cache).
// Every query opens a fresh simulation, as one bin/pr -sim process does,
// so its makespan is exact and repeats for a seed.
const (
	simGraph = "r2"
	simScale = 2048
	simReps  = 3
	simIters = 5
)

func simOptions(base string) *cli.Options {
	return cliOptions("pr", false, "-sim", "-maxIters", strconv.Itoa(simIters), base+".gr.index", base+".gr.adj.0")
}

func runSimPaper(o opts) (*outcome, error) {
	d, err := generate(simGraph, simScale, o.seed, o.work)
	if err != nil {
		return nil, err
	}
	first, ss, err := timedSetup(d, simReps, func(base string) (*cli.Env, error) {
		return cli.Setup(simOptions(base))
	}, (*cli.Env).Close)
	if err != nil {
		return nil, err
	}
	first.Close()
	opt := simOptions(ss.base)
	c, err := readCSR(opt.IndexPath, opt.AdjPath)
	if err != nil {
		return nil, err
	}
	want := algo.RefPageRankDelta(c, opt.Epsilon, simIters)

	res := newOutcome()
	ss.put(res)
	rec := &calls{}
	var st stages
	var opMs, makespans []float64
	var busy float64
	var edges int64
	var opEdges []int64
	good := 0
	w := openWindow()
	for i := 0; i == 0 || w.elapsed() < o.seconds; i++ {
		env, err := cli.Setup(opt)
		if err != nil {
			return nil, err
		}
		sys := env.Sys
		var tr *trace.Tracer
		if o.trace {
			if sys, tr, err = tracedSystem(opt.Engine, env); err != nil {
				env.Close()
				return nil, err
			}
		}
		var scanned int64
		var rank []float64
		var opErr error
		dur := w.measure(func() {
			env.Ctx.Run("main", func(p exec.Proc) {
				rank, _, opErr = algo.PageRankDrive(env.QueryDriver(sys), probe{sys, rec, &scanned}, p, env.Out, opt.Epsilon, opt.Convergence())
			})
		})
		makespan := env.Ctx.(*exec.Sim).End
		env.Close()
		busy += dur.Seconds()
		edges += scanned
		opEdges = append(opEdges, scanned)
		opMs = append(opMs, float64(dur)/1e6)
		makespans = append(makespans, float64(makespan)/1e6)
		res.attempted++
		if opErr != nil || !ranksMatch(rank, want) {
			res.failed++
			res.correct = false
		} else {
			good++
		}
		if tr != nil {
			st.add(tr.Collect(), []interval{{0, makespan}}, makespan)
		}
	}
	w.stop()

	ops := len(opMs)
	e2e{ops: ops, opMs: opMs, batchMs: opMs, edges: edges, opEdges: opEdges, good: good, busyS: busy,
		cpuS: w.OpCPUS, allocB: w.OpAllocBytes, w: w}.put(res)
	rec.put(res.layers, ops)
	res.layers.set("exec.makespan_ms", "ms", median(makespans))
	res.layers.set("exec.wall_per_virtual", "ratio", ratio(median(opMs), median(makespans)))
	if o.trace {
		st.put(res.layers, edges)
	}
	res.summary = fmt.Sprintf("%d simulated queries of %d PageRank-delta iterations over |V|=%d |E|=%d, makespan %.6g ms",
		ops, simIters, c.V, c.E, median(makespans))
	return res, nil
}
