package main

import (
	"reflect"
	"testing"

	"blaze/algo"
	"blaze/internal/graph"
)

func TestUnionLenCountsOverlapOnceInsideWindows(t *testing.T) {
	reads := []interval{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	windows := []interval{{8, 25}, {45, 100}}
	// Union of reads is [0,15) ∪ [20,30) ∪ [40,50); inside the windows
	// that is [8,15) + [20,25) + [45,50) = 7 + 5 + 5.
	if got := unionLen(reads, windows); got != 17 {
		t.Fatalf("unionLen = %d, want 17", got)
	}
	busy := unionLen([]interval{{0, 100}, {0, 100}, {10, 90}}, []interval{{0, 50}})
	if busy > 50 {
		t.Fatalf("overlapping reads counted %d ns busy in a 50 ns window", busy)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Fatalf("p50 = %g, want 3", got)
	}
	if got := percentile(xs, 90); got != 5 {
		t.Fatalf("p90 = %g, want 5", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Fatal("percentile reordered its input")
	}
}

func TestParentCheckMatchesCheckParents(t *testing.T) {
	// 0→1, 0→2, 1→3, 2→3, 3→4; 5 is unreachable.
	c := graph.MustBuild(6, []uint32{0, 0, 1, 2, 3}, []uint32{1, 2, 3, 3, 4})
	depth := algo.RefBFSDepth(c, 0)
	pc := newParentCheck(c)
	cases := []struct {
		parent []int32
		ok     bool
	}{
		{[]int32{0, 0, 0, 1, 3, -1}, true},
		{[]int32{0, 0, 0, 2, 3, -1}, true},
		{[]int32{0, 0, 0, 0, 3, -1}, false}, // 0→3 is not an edge
		{[]int32{0, 0, 0, 1, 1, -1}, false}, // 1 is two levels above 4
		{[]int32{0, 0, 0, 1, 3, 4}, false},  // 5 is unreachable
		{[]int32{1, 0, 0, 1, 3, -1}, false}, // the source is its own parent
	}
	for i, tc := range cases {
		wide := make([]int64, len(tc.parent))
		for v, p := range tc.parent {
			wide[v] = int64(p)
		}
		if _, ref := algo.CheckParents(c, 0, wide, depth); ref != tc.ok {
			t.Fatalf("case %d: algo.CheckParents says %v, test expects %v", i, ref, tc.ok)
		}
		if got := pc.valid(0, tc.parent, depth); got != tc.ok {
			t.Errorf("case %d: valid = %v, want %v", i, got, tc.ok)
		}
	}
}

func TestScheduleDependsOnSeedOnly(t *testing.T) {
	src := make([]uint32, 0, 400)
	dst := make([]uint32, 0, 400)
	for v := uint32(0); v < 200; v++ {
		src = append(src, v, v)
		dst = append(dst, (v+1)%200, (v+7)%200)
	}
	c := graph.MustBuild(200, src, dst)
	a, b := schedule(3, 2, c), schedule(3, 2, c)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) != int(srvRate*2) {
		t.Fatalf("%d arrivals, want %d", len(a), int(srvRate*2))
	}
	interactive := 0
	for i, x := range a {
		if i > 0 && x.dueNs < a[i-1].dueNs {
			t.Fatal("arrivals out of order")
		}
		if x.dueNs < 0 || x.dueNs >= 2e9 {
			t.Fatalf("arrival at %d ns outside the window", x.dueNs)
		}
		if x.interactive {
			interactive++
		}
	}
	if 4*interactive != 3*len(a) {
		t.Fatalf("%d of %d interactive, want three quarters", interactive, len(a))
	}
	if reflect.DeepEqual(a, schedule(4, 2, c)) {
		t.Fatal("different seeds gave the same schedule")
	}
}
