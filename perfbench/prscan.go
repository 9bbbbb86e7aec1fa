package main

import (
	"fmt"
	"math"
	"strconv"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
	"blaze/internal/trace"
)

// pr-scan: one all-vertex PageRank-delta iteration per operation over the
// on-disk r2 graph at 1/2048, built the way bin/pr builds its engine.
const (
	prGraph = "r2"
	prScale = 2048
	prReps  = 3 // set-up repetitions; setup_s is their median
)

func runPRScan(o opts) (*outcome, error) {
	d, err := generate(prGraph, prScale, o.seed, o.work)
	if err != nil {
		return nil, err
	}
	var opt *cli.Options
	env, ss, err := timedSetup(d, prReps, func(base string) (*cli.Env, error) {
		opt = cliOptions("pr", false, "-computeWorkers", strconv.Itoa(o.workers), base+".gr.index", base+".gr.adj.0")
		return cli.Setup(opt)
	}, (*cli.Env).Close)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	c, err := readCSR(ss.base+".gr.index", ss.base+".gr.adj.0")
	if err != nil {
		return nil, err
	}
	want := algo.RefPageRankDelta(c, 1e-9, 1)

	res := newOutcome()
	ss.put(res)
	rec := &calls{}
	var st stages
	var opMs, tracedRate, plainRate []float64
	var busy float64
	var edges, tracedEdges int64
	var opEdges []int64
	good := 0
	io0 := snapIO(env.Stats)
	w := openWindow()
	for i := 0; i == 0 || w.elapsed() < o.seconds; i++ {
		// The traced run alternates traced and untraced operations, so
		// their rates compare under the same machine conditions.
		var tr *trace.Tracer
		sys := env.Sys
		if o.trace && i%2 == 0 {
			if sys, tr, err = tracedSystem(opt.Engine, env); err != nil {
				return nil, err
			}
		}
		var rank []float64
		var opErr error
		var win interval
		sec := w.measure(func() {
			env.Ctx.Run("main", func(p exec.Proc) {
				win.lo = p.Now()
				rank, opErr = algo.PageRankOneIteration(probe{sys, rec, nil}, p, env.Out)
				win.hi = p.Now()
			})
		}).Seconds()
		scanned := lastStats(sys).EdgesScanned
		busy += sec
		edges += scanned
		opEdges = append(opEdges, scanned)
		opMs = append(opMs, sec*1000)
		res.attempted++
		if opErr != nil || !ranksMatch(rank, want) {
			res.failed++
			res.correct = false
		} else {
			good++
		}
		if tr != nil {
			st.add(tr.Collect(), []interval{win}, win.hi-win.lo)
			tracedEdges += scanned
			tracedRate = append(tracedRate, float64(scanned)/sec)
		} else {
			plainRate = append(plainRate, float64(scanned)/sec)
		}
	}
	w.stop()
	io1 := snapIO(env.Stats)

	e2e{ops: len(opMs), opMs: opMs, batchMs: opMs, edges: edges, opEdges: opEdges, good: good, busyS: busy,
		cpuS: w.OpCPUS, allocB: w.OpAllocBytes, w: w}.put(res)
	rec.put(res.layers, len(opMs))
	putIO(res.layers, io0, io1, len(opMs))
	if o.trace {
		st.put(res.layers, tracedEdges)
		res.layers.set("trace.overhead_frac", "frac", 1-ratio(median(tracedRate), median(plainRate)))
	}
	res.summary = fmt.Sprintf("%d PageRank iterations over |V|=%d |E|=%d, %.3g edges/s",
		len(opMs), env.Out.NumVertices(), env.Out.NumEdges(), ratio(float64(edges), busy))
	return res, nil
}

// ranksMatch compares against the serial reference: the same recurrence
// summed in a different order, so a tight relative tolerance.
func ranksMatch(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for v := range got {
		if math.Abs(got[v]-want[v]) > 1e-6*math.Max(want[v], 1e-12) {
			return false
		}
	}
	return true
}
