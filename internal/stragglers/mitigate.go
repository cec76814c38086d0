package stragglers

import (
	"fmt"
	"sort"
)

// Mitigation selects the scheduler's response to detected stragglers.
type Mitigation string

const (
	// MitigateNone runs the profile unmitigated (the baseline cells of the
	// stragglers matrix).
	MitigateNone Mitigation = ""
	// MitigateClone is backup-worker task cloning: the scheduler mirrors a
	// flagged worker's iteration stream onto a spare worker; first ack wins
	// and the parameter servers dedup the loser's push by (worker, iter),
	// so the model digest is unaffected by who wins.
	MitigateClone Mitigation = "clone"
	// MitigateRebalance is straggler-triggered rebalancing: on a sustained
	// straggler the scheduler retires it and admits a healthy spare, which
	// joins the running cluster, instead of only switching the scheme.
	MitigateRebalance Mitigation = "rebalance"
)

// ParseMitigation parses a mitigation name; "none" and "" both mean
// MitigateNone.
func ParseMitigation(s string) (Mitigation, error) {
	switch Mitigation(s) {
	case MitigateNone, MitigateClone, MitigateRebalance:
		return Mitigation(s), nil
	case "none":
		return MitigateNone, nil
	default:
		return "", fmt.Errorf("stragglers: unknown mitigation %q (want clone, rebalance, or none)", s)
	}
}

// UnmarshalText parses a run spec's mitigation name (ParseMitigation).
func (m *Mitigation) UnmarshalText(text []byte) error {
	v, err := ParseMitigation(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Validate rejects unknown mitigation values from config structs.
func (m Mitigation) Validate() error {
	switch m {
	case MitigateNone, MitigateClone, MitigateRebalance:
		return nil
	}
	return fmt.Errorf("stragglers: unknown mitigation %q", string(m))
}

// Score validates the straggler detector against a plan's ground truth: the
// plan knows which workers were actually slowed, the detector reports which
// it flagged as sustained stragglers at any point in the run.
type Score struct {
	// Truth is the sorted set of workers the plan slowed.
	Truth []int `json:"truth"`
	// Detected is the sorted set of workers the detector ever held at
	// sustained level (including scheduler-forced overdue flags).
	Detected []int `json:"detected"`

	TruePositives  int `json:"true_positives"`
	FalsePositives int `json:"false_positives"`
	FalseNegatives int `json:"false_negatives"`

	// Precision = TP/(TP+FP), Recall = TP/(TP+FN); both 1 when the truth
	// and detected sets are empty (nothing to find, nothing falsely found).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

// ScoreDetection computes detector precision/recall for a truth set.
func ScoreDetection(truth, detected []int) Score {
	t := map[int]bool{}
	for _, w := range truth {
		t[w] = true
	}
	d := map[int]bool{}
	for _, w := range detected {
		d[w] = true
	}
	s := Score{
		Truth:    sortedSet(t),
		Detected: sortedSet(d),
	}
	for w := range d {
		if t[w] {
			s.TruePositives++
		} else {
			s.FalsePositives++
		}
	}
	for w := range t {
		if !d[w] {
			s.FalseNegatives++
		}
	}
	if s.TruePositives+s.FalsePositives == 0 {
		s.Precision = 1
	} else {
		s.Precision = float64(s.TruePositives) / float64(s.TruePositives+s.FalsePositives)
	}
	if s.TruePositives+s.FalseNegatives == 0 {
		s.Recall = 1
	} else {
		s.Recall = float64(s.TruePositives) / float64(s.TruePositives+s.FalseNegatives)
	}
	return s
}

func sortedSet(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for w := range m {
		out = append(out, w)
	}
	sort.Ints(out)
	return out
}
