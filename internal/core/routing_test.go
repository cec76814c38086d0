package core

import (
	"testing"

	"specsync/internal/ps"
)

func TestSplitRoutesMatchesShardRanges(t *testing.T) {
	// A rebalance back to the original server set must reproduce the static
	// ps.ShardRanges layout exactly, or the empty-plan byte-identity breaks.
	for _, tc := range []struct{ dim, n int }{
		{24, 4}, {10, 3}, {7, 7}, {100, 6}, {5, 1},
	} {
		slots := make([]int, tc.n)
		for i := range slots {
			slots[i] = i
		}
		routes, err := SplitRoutes(tc.dim, slots)
		if err != nil {
			t.Fatalf("SplitRoutes(%d,%d): %v", tc.dim, tc.n, err)
		}
		ranges, err := ps.ShardRanges(tc.dim, tc.n)
		if err != nil {
			t.Fatalf("ShardRanges(%d,%d): %v", tc.dim, tc.n, err)
		}
		for i := range routes {
			if routes[i].Lo != ranges[i].Lo || routes[i].Hi != ranges[i].Hi || routes[i].Server != i {
				t.Errorf("dim=%d n=%d shard %d: route %+v vs range %+v", tc.dim, tc.n, i, routes[i], ranges[i])
			}
		}
	}
}

func TestSplitRoutesErrors(t *testing.T) {
	if _, err := SplitRoutes(3, []int{0, 1, 2, 3}); err == nil {
		t.Error("dim < shards accepted")
	}
	if _, err := SplitRoutes(5, nil); err == nil {
		t.Error("empty server set accepted")
	}
}

func TestSplitRoutesNonContiguousSlots(t *testing.T) {
	// Slot numbering is arbitrary: routes over {0,2} must assign ranges to
	// exactly those slots.
	routes, err := SplitRoutes(10, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl := &RoutingTable{Epoch: 1, Shards: routes}
	if err := tbl.Validate(); err != nil {
		t.Fatalf("table invalid: %v", err)
	}
	if tbl.Dim() != 10 {
		t.Errorf("dim = %d, want 10", tbl.Dim())
	}
	if lo, hi, ok := tbl.RangeOf(2); !ok || lo != 5 || hi != 10 {
		t.Errorf("RangeOf(2) = %d,%d,%v", lo, hi, ok)
	}
	if _, _, ok := tbl.RangeOf(1); ok {
		t.Error("slot 1 owns a range")
	}
}

func TestTableWireRoundtrip(t *testing.T) {
	routes, err := SplitRoutes(24, []int{3, 0, 5})
	if err != nil {
		t.Fatal(err)
	}
	tbl := &RoutingTable{Epoch: 9, Shards: routes}
	lo, hi, srv := TableToWire(tbl)
	back, err := TableFromWire(tbl.Epoch, lo, hi, srv)
	if err != nil {
		t.Fatalf("from wire: %v", err)
	}
	if back.Epoch != tbl.Epoch || len(back.Shards) != len(tbl.Shards) {
		t.Fatalf("shape changed: %+v", back)
	}
	for i := range tbl.Shards {
		if back.Shards[i] != tbl.Shards[i] {
			t.Errorf("shard %d: %+v != %+v", i, back.Shards[i], tbl.Shards[i])
		}
	}
}

func TestTableFromWireRejects(t *testing.T) {
	if _, err := TableFromWire(1, []int32{0}, []int32{5, 9}, []int32{0}); err == nil {
		t.Error("mismatched slice lengths accepted")
	}
	// Gap between shards.
	if _, err := TableFromWire(1, []int32{0, 6}, []int32{5, 9}, []int32{0, 1}); err == nil {
		t.Error("non-contiguous table accepted")
	}
	// Duplicate server.
	if _, err := TableFromWire(1, []int32{0, 5}, []int32{5, 9}, []int32{0, 0}); err == nil {
		t.Error("duplicate server accepted")
	}
	// Empty table.
	if _, err := TableFromWire(1, nil, nil, nil); err == nil {
		t.Error("empty table accepted")
	}
	// Negative server slot.
	if _, err := TableFromWire(1, []int32{0}, []int32{5}, []int32{-1}); err == nil {
		t.Error("negative server accepted")
	}
	// Empty range.
	if _, err := TableFromWire(1, []int32{0, 5}, []int32{5, 5}, []int32{0, 1}); err == nil {
		t.Error("empty range accepted")
	}
}
