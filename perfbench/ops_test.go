package main

import (
	"reflect"
	"testing"
)

// TestOpListsArePureFunctionsOfSeed pins the fixed-op-list contract:
// the same (seed, length) gives the same inputs, another seed gives
// other estimation seeds over the same shapes, and every request in a
// list is distinct where the workload needs cache misses.
func TestOpListsArePureFunctionsOfSeed(t *testing.T) {
	warmA, coldA := serveColdOps(7, 15)
	warmB, coldB := serveColdOps(7, 15)
	if !reflect.DeepEqual(warmA, warmB) || !reflect.DeepEqual(coldA, coldB) {
		t.Fatal("serve-cold op list differs between two calls with one seed")
	}
	_, coldC := serveColdOps(8, 15)
	if reflect.DeepEqual(coldA, coldC) {
		t.Fatal("serve-cold op lists of seeds 7 and 8 are equal")
	}
	if !reflect.DeepEqual(shapeCounts(coldA), shapeCounts(coldC)) {
		t.Fatal("serve-cold seeds 7 and 8 draw different request shapes")
	}
	seen := map[string]bool{string(warmA.body()): true}
	for _, op := range coldA {
		b := string(op.body())
		if seen[b] {
			t.Fatalf("serve-cold repeats request %s", b)
		}
		seen[b] = true
	}

	hw1, set1, ops1 := serveHotOps(7, 15)
	hw2, set2, ops2 := serveHotOps(7, 15)
	if !reflect.DeepEqual(hw1, hw2) || !reflect.DeepEqual(set1, set2) || !reflect.DeepEqual(ops1, ops2) {
		t.Fatal("serve-hot op list differs between two calls with one seed")
	}
	if _, set3, _ := serveHotOps(8, 15); reflect.DeepEqual(set1, set3) {
		t.Fatal("serve-hot working sets of seeds 7 and 8 are equal")
	}
	hits := make([]int, len(set1))
	for _, j := range ops1 {
		hits[j]++
	}
	for j, h := range hits {
		if h != hits[0] {
			t.Fatalf("serve-hot point %d drawn %d times, point 0 %d times", j, h, hits[0])
		}
	}
	if len(set1) >= 1024 {
		t.Fatalf("serve-hot working set of %d does not fit the daemon's LRU", len(set1))
	}

	sw1, s1 := searchRaceOps(7, 15)
	sw2, s2 := searchRaceOps(7, 15)
	if !reflect.DeepEqual(sw1, sw2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("search-race op list differs between two calls with one seed")
	}
	if _, s3 := searchRaceOps(8, 15); reflect.DeepEqual(s1, s3) {
		t.Fatal("search-race op lists of seeds 7 and 8 are equal")
	}

	if !reflect.DeepEqual(sweepGridSpec(7), sweepGridSpec(7)) {
		t.Fatal("sweep-grid spec differs between two calls with one seed")
	}
	if sweepGridSpec(7).Seed == sweepGridSpec(8).Seed {
		t.Fatal("sweep-grid seeds 7 and 8 share a grid seed")
	}
}

// TestOpListsReachP90 checks every list is long enough for op_p90_ms.
func TestOpListsReachP90(t *testing.T) {
	for _, seconds := range []int{1, 15} {
		if _, ops := serveColdOps(1, seconds); len(ops) < minTimedOps {
			t.Errorf("serve-cold at %ds: %d ops", seconds, len(ops))
		}
		if _, _, ops := serveHotOps(1, seconds); len(ops) < minTimedOps {
			t.Errorf("serve-hot at %ds: %d ops", seconds, len(ops))
		}
		if _, ops := searchRaceOps(1, seconds); len(ops) < minTimedOps {
			t.Errorf("search-race at %ds: %d ops", seconds, len(ops))
		}
	}
}

func shapeCounts(ops []serveOp) map[string]int {
	counts := map[string]int{}
	for _, op := range ops {
		counts[op.Shape.name()]++
	}
	return counts
}
