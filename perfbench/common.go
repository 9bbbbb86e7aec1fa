package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/cli"
	"blaze/internal/graph"
	"blaze/internal/ingest"
)

// Seed tags: every random input of a run derives from --seed and one tag,
// so the inputs never depend on how fast the program runs.
const (
	tagGraph uint64 = iota + 1
	tagUpdates
	tagSources
	tagArrivals
)

// mix derives an independent stream seed from the run seed (splitmix64).
func mix(seed, tag uint64) uint64 {
	z := seed*0x9E3779B97F4A7C15 + tag*0xBF58476D1CE4E5B9 + 1
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// dataset is one generated input: a Table II preset scaled down and
// re-seeded, written as the plain-text edge list mkgraph -edges reads.
type dataset struct {
	preset gen.Preset
	dir    string
	edges  string
}

// generate writes the seeded edge list; it is input preparation, not timed.
func generate(short string, scale float64, seed uint64, dir string) (*dataset, error) {
	p, err := gen.PresetByShort(short)
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	p.Seed = mix(seed, tagGraph)
	src, dst := p.Generate()
	d := &dataset{preset: p, dir: dir, edges: filepath.Join(dir, "edges.txt")}
	f, err := os.Create(d.edges)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for i := range src {
		line = strconv.AppendUint(line[:0], uint64(src[i]), 10)
		line = append(line, ' ')
		line = strconv.AppendUint(line, uint64(dst[i]), 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	return d, f.Close()
}

// setupStats summarises the timed set-up repetitions.
type setupStats struct {
	total, build []float64 // seconds per repetition
	runs         int
	edges        int64
	base         string // file base of the kept repetition
}

// ingestBudget is the out-of-core run buffer as a share of the edge list's
// in-memory size (8 bytes per edge): below 1, so ingest takes the
// external-merge path a graph larger than memory takes.
const ingestBudget = 0.25

// timedSetup makes the graph queryable reps times and keeps the last one:
// the out-of-core ingest.Build of the text edge list (mkgraph -edges
// -maxMemMB) into the four CSR files, then open, which is whatever the
// workload's entry point does before it can answer a query.
func timedSetup[T any](d *dataset, reps int, open func(base string) (T, error), closeFn func(T)) (T, setupStats, error) {
	var kept T
	var ss setupStats
	budget := int64(math.Max(1, ingestBudget*8*float64(d.preset.E)))
	for rep := 0; rep < reps; rep++ {
		base := filepath.Join(d.dir, fmt.Sprintf("g%d", rep))
		t0 := time.Now()
		st, err := ingest.BuildFromFile(d.edges, base, ingest.Config{
			MaxMemBytes: budget,
			TmpDir:      d.dir,
			Vertices:    d.preset.V,
		})
		if err != nil {
			return kept, ss, fmt.Errorf("ingest: %w", err)
		}
		t1 := time.Now()
		v, err := open(base)
		if err != nil {
			return kept, ss, fmt.Errorf("open: %w", err)
		}
		t2 := time.Now()
		ss.build = append(ss.build, t1.Sub(t0).Seconds())
		ss.total = append(ss.total, t2.Sub(t0).Seconds())
		ss.runs, ss.edges, ss.base = st.Runs, st.Edges, base
		if rep < reps-1 {
			closeFn(v)
			removeGraph(base)
			continue
		}
		kept = v
	}
	return kept, ss, nil
}

func removeGraph(base string) {
	for _, s := range []string{".gr.index", ".gr.adj.0", ".tgr.index", ".tgr.adj.0"} {
		os.Remove(base + s)
	}
}

// put writes setup_s and the ingest layer's metrics.
func (ss setupStats) put(res *outcome) {
	build := median(ss.build)
	res.endToEnd.set("setup_s", "s", median(ss.total))
	res.layers.set("ingest.build_s", "s", build)
	res.layers.set("ingest.edges_per_s", "1/s", ratio(float64(ss.edges), build))
	res.layers.set("ingest.runs", "count", float64(ss.runs))
}

// readCSR loads one direction of the graph with its adjacency, for the
// serial references the answers are checked against.
func readCSR(index, adj string) (*graph.CSR, error) {
	c, err := graph.ReadIndex(index)
	if err != nil {
		return nil, err
	}
	if err := graph.ReadAdj(adj, c); err != nil {
		return nil, err
	}
	return c, nil
}

// cliOptions parses args with the query tools' own flag set (internal/cli),
// so every default the shipped tools use applies unless args override it.
func cliOptions(tool string, needTranspose bool, args ...string) *cli.Options {
	saved := os.Args
	defer func() { os.Args = saved }()
	os.Args = append([]string{tool}, args...)
	return cli.ParseFlags(tool, needTranspose)
}

// e2e is one workload's raw end-to-end measurements.
type e2e struct {
	ops     int       // operations measured
	opMs    []float64 // per-op latency; interactive requests on serve-open
	batchMs []float64 // batch-class latency; every op on closed loops
	edges   int64     // edges processed: scanned, or inserted on bfs-update
	good    int       // correct (and on-time) completions
	busyS   float64   // closed loops: summed op time; open loop: window
	cpuS    float64   // process CPU charged to the operations
	allocB  float64   // bytes allocated by the operations
	w       *window
	// opEdges, set by closed loops of identical operations, holds each
	// operation's scanned edges; the rates then come from medians over
	// operations, which a burst of machine noise moves less than a mean.
	opEdges []int64
}

// put writes every end-to-end metric and the Go runtime layer.
func (m e2e) put(res *outcome) {
	ops := float64(max(m.ops, 1))
	edgeRate, goodRate := ratio(float64(m.edges), m.busyS), ratio(float64(m.good), m.busyS)
	if len(m.opEdges) == len(m.opMs) && len(m.opMs) > 0 {
		rates := make([]float64, len(m.opMs))
		for i, ms := range m.opMs {
			rates[i] = ratio(float64(m.opEdges[i]), ms/1000)
		}
		edgeRate = median(rates)
		goodRate = float64(m.good) / ops * ratio(1000, median(m.opMs))
	}
	res.endToEnd.set("edges_per_s", "1/s", edgeRate)
	res.endToEnd.set("goodput_per_s", "1/s", goodRate)
	res.endToEnd.set("op_p50_ms", "ms", percentile(m.opMs, 50))
	res.endToEnd.set("op_p90_ms", "ms", percentile(m.opMs, 90))
	res.endToEnd.set("batch_p50_ms", "ms", percentile(m.batchMs, 50))
	res.endToEnd.set("cpu_ms_per_op", "ms", 1000*m.cpuS/ops)
	res.endToEnd.set("mem_peak_mb", "MB", m.w.PeakMB)
	res.layers.set("go.alloc_mb_per_op", "MB", m.allocB/(1<<20)/ops)
	res.layers.set("go.gc_cpu_frac", "frac", m.w.GCCPUFrac)
}

// pickSources returns n seeded BFS sources that reach close to the most
// any vertex reaches: it draws max(32, 2n) vertices, measures each one's
// reach with a serial BFS, and keeps, in draw order, the first n within
// 10% of the best (repeating them if fewer qualify). Traversals then cover
// a comparable share of the graph whatever the seed; a random vertex of
// the crawl graph often reaches only a handful of others.
func pickSources(c *graph.CSR, seed uint64, n int) []uint32 {
	r := gen.NewRNG(seed)
	draws := make([]uint32, max(32, 2*n))
	reach := make([]int, len(draws))
	best := 0
	for i := range draws {
		draws[i] = uint32(r.Intn(int(c.V)))
		for _, d := range algo.RefBFSDepth(c, draws[i]) {
			if d >= 0 {
				reach[i]++
			}
		}
		best = max(best, reach[i])
	}
	var out []uint32
	for i, v := range draws {
		if 10*reach[i] >= 9*best {
			out = append(out, v)
		}
	}
	for i, q := 0, len(out); len(out) < n; i++ {
		out = append(out, out[i%q])
	}
	return out[:n]
}
