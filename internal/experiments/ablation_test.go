package experiments

import (
	"testing"

	"specsync/internal/trace"
)

// TestBroadcastCost: every push costs workers - 1 frames, each the kind
// prefix plus the iteration's varint, and other events cost nothing.
func TestBroadcastCost(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindPush, Iter: 0},   // 2 + 1 bytes
		{Kind: trace.KindPull, Iter: 5},   // not a push
		{Kind: trace.KindPush, Iter: 200}, // 2 + 2 bytes
		{Kind: trace.KindAbort, Iter: 7},
	}
	bytes, msgs := broadcastCost(events, 4)
	if msgs != 6 || bytes != 3*(3+4) {
		t.Errorf("broadcastCost = %d bytes, %d msgs; want 21, 6", bytes, msgs)
	}
	if bytes, msgs := broadcastCost(events, 1); bytes != 0 || msgs != 0 {
		t.Errorf("a lone worker has no peers: got %d bytes, %d msgs", bytes, msgs)
	}
}
