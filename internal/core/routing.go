package core

import "fmt"

// Routing: the shard→server map a worker that joins a running cluster
// receives in its JoinAck, so it can tell which server owns each parameter
// range. The cluster builds the table once at start and never re-versions it;
// the epoch stamp stays part of the JoinAck layout.

// ShardRoute assigns the parameter range [Lo, Hi) to a server slot.
type ShardRoute struct {
	Lo, Hi int
	Server int
}

// Len returns the number of parameters in the route.
func (r ShardRoute) Len() int { return r.Hi - r.Lo }

// RoutingTable is a shard→server assignment. Shards are sorted by Lo and
// partition [0, Dim()) exactly.
type RoutingTable struct {
	Epoch  int64
	Shards []ShardRoute
}

// Dim returns the total parameter count covered by the table.
func (t *RoutingTable) Dim() int {
	if len(t.Shards) == 0 {
		return 0
	}
	return t.Shards[len(t.Shards)-1].Hi
}

// Validate checks that the table has shards, that their ranges are non-empty
// and contiguous from zero, and that every range goes to a distinct
// non-negative server slot. Tables arrive from the network (JoinAck), so this
// is their shape check.
func (t *RoutingTable) Validate() error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("core: routing table %d has no shards", t.Epoch)
	}
	seen := make(map[int]bool, len(t.Shards))
	next := 0
	for i, r := range t.Shards {
		if r.Lo != next || r.Hi <= r.Lo {
			return fmt.Errorf("core: routing table %d: shard %d range [%d,%d) not contiguous at %d", t.Epoch, i, r.Lo, r.Hi, next)
		}
		if r.Server < 0 {
			return fmt.Errorf("core: routing table %d: shard %d has negative server %d", t.Epoch, i, r.Server)
		}
		if seen[r.Server] {
			return fmt.Errorf("core: routing table %d: server %d owns two shards", t.Epoch, r.Server)
		}
		seen[r.Server] = true
		next = r.Hi
	}
	return nil
}

// Clone deep-copies the table.
func (t *RoutingTable) Clone() *RoutingTable {
	if t == nil {
		return nil
	}
	out := &RoutingTable{Epoch: t.Epoch, Shards: make([]ShardRoute, len(t.Shards))}
	copy(out.Shards, t.Shards)
	return out
}

// RangeOf returns the range owned by the given server slot, or ok=false when
// the slot owns nothing under this table.
func (t *RoutingTable) RangeOf(server int) (lo, hi int, ok bool) {
	for _, r := range t.Shards {
		if r.Server == server {
			return r.Lo, r.Hi, true
		}
	}
	return 0, 0, false
}

// SplitRoutes splits dim parameters evenly across the given server slots
// (remainder spread over the first shards), assigning the i-th range to
// servers[i] in slice order. The split matches ps.ShardRanges.
func SplitRoutes(dim int, servers []int) ([]ShardRoute, error) {
	n := len(servers)
	if n < 1 || dim < n {
		return nil, fmt.Errorf("core: cannot split %d params into %d shards", dim, n)
	}
	out := make([]ShardRoute, 0, n)
	per, extra := dim/n, dim%n
	lo := 0
	for i, srv := range servers {
		l := per
		if i < extra {
			l++
		}
		out = append(out, ShardRoute{Lo: lo, Hi: lo + l, Server: srv})
		lo += l
	}
	return out, nil
}

// TableToWire flattens a table into the parallel int32 slices carried by
// JoinAck.
func TableToWire(t *RoutingTable) (lo, hi, srv []int32) {
	lo = make([]int32, len(t.Shards))
	hi = make([]int32, len(t.Shards))
	srv = make([]int32, len(t.Shards))
	for i, r := range t.Shards {
		lo[i], hi[i], srv[i] = int32(r.Lo), int32(r.Hi), int32(r.Server)
	}
	return lo, hi, srv
}

// TableFromWire rebuilds a table from wire slices, validating shape.
func TableFromWire(epoch int64, lo, hi, srv []int32) (*RoutingTable, error) {
	if len(lo) != len(hi) || len(lo) != len(srv) {
		return nil, fmt.Errorf("core: routing wire slices disagree: %d/%d/%d", len(lo), len(hi), len(srv))
	}
	t := &RoutingTable{Epoch: epoch, Shards: make([]ShardRoute, len(lo))}
	for i := range lo {
		t.Shards[i] = ShardRoute{Lo: int(lo[i]), Hi: int(hi[i]), Server: int(srv[i])}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
