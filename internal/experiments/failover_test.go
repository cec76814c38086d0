package experiments

import (
	"strings"
	"testing"
)

func TestFailoverQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	r, err := Failover(quickOpts(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ZeroLoss {
		t.Errorf("replicated crash digest %s != baseline %s", r.ReplicaDigest, r.BaselineDigest)
	}
	if r.ReplicaLost != 0 {
		t.Errorf("replicated run lost %d pushes, want 0", r.ReplicaLost)
	}
	if r.CheckpointLost == 0 {
		t.Error("checkpoint-only run lost no pushes; the comparison is vacuous")
	}
	if r.CheckpointMatch {
		t.Error("checkpoint-only run matched the fault-free digest")
	}
	if !r.Reproducible {
		t.Error("identical replicated crash runs diverged")
	}
	if r.Elections < 1 {
		t.Errorf("scheduler failover: %d elections, want >= 1", r.Elections)
	}
	if !r.Converged {
		t.Error("scheduler-kill run did not converge")
	}
	var sb strings.Builder
	r.Render(&sb)
	if !strings.Contains(sb.String(), "zero-loss failover holds") {
		t.Errorf("render missing the zero-loss verdict:\n%s", sb.String())
	}
}

func TestFailoverValidation(t *testing.T) {
	if _, err := Failover(quickOpts(), 0, 1); err == nil {
		t.Error("replicas = 0 should be rejected")
	}
	if _, err := Failover(quickOpts(), 1, 0); err == nil {
		t.Error("standbys = 0 should be rejected")
	}
}
