package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"specsync/internal/scheme"
	"specsync/internal/trace"
)

// TimelineResult renders the qualitative 4-worker timelines of paper
// Figs. 2/4/6: where pulls and pushes land under plain ASP, naïve waiting
// and SpecSync, and where SpecSync aborts and refreshes.
type TimelineResult struct {
	Rows []TimelineRow
}

// TimelineRow is one scheme's event timeline.
type TimelineRow struct {
	Scheme string
	Span   time.Duration
	Events []trace.Event
	// Workers is the number of worker lanes.
	Workers int
}

// Timeline runs a 4-worker toy cluster under the three schemes of the
// paper's illustration and captures their event traces.
func Timeline(o Options) (*TimelineResult, error) {
	o = o.normalize()
	o.Workers = 4
	wl, err := o.workload(WorkloadCIFAR)
	if err != nil {
		return nil, err
	}
	span := 6 * wl.IterTime
	res := &TimelineResult{}
	cases := []struct {
		name string
		sc   schemeConfig
	}{
		{"ASP (Fig 2)", schemeASP()},
		{"Naive waiting (Fig 4)", schemeConfig{Base: scheme.ASP, NaiveWait: wl.IterTime / 10}},
		{"SpecSync (Fig 6)", schemeAdaptive()},
	}
	for _, c := range cases {
		run, err := runOne(o, wl, c.sc, func(cc *clusterConfig) {
			cc.KeepTrace = true
			cc.MaxVirtual = span
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, TimelineRow{
			Scheme:  c.name,
			Span:    span,
			Events:  run.Trace.Events(),
			Workers: o.Workers,
		})
	}
	return res, nil
}

// Render draws ASCII lanes: '|' = pull completed, '^' = push, 'X' = abort.
func (r *TimelineResult) Render(w io.Writer) {
	fmt.Fprintln(w, "Figs 2/4/6: 4-worker event timelines ('|' pull, '^' push, 'X' abort-and-refresh).")
	const cols = 100
	for _, row := range r.Rows {
		fmt.Fprintf(w, "\n%s\n", row.Scheme)
		lanes := make([][]byte, row.Workers)
		for i := range lanes {
			lanes[i] = []byte(strings.Repeat("-", cols))
		}
		// All events carry absolute times measured from the simulation
		// epoch (time.Unix(0, 0)).
		start := time.Unix(0, 0).UTC()
		for _, ev := range row.Events {
			if ev.Worker < 0 || ev.Worker >= row.Workers {
				continue
			}
			pos := int(float64(ev.At.Sub(start)) / float64(row.Span) * float64(cols-1))
			if pos < 0 || pos >= cols {
				continue
			}
			var ch byte
			switch ev.Kind {
			case trace.KindPull:
				ch = '|'
			case trace.KindPush:
				ch = '^'
			case trace.KindAbort:
				ch = 'X'
			default:
				continue
			}
			// On cell collisions: aborts > pushes > pulls.
			prio := map[byte]int{'-': 0, '|': 1, '^': 2, 'X': 3}
			if prio[lanes[ev.Worker][pos]] >= prio[ch] {
				continue
			}
			lanes[ev.Worker][pos] = ch
		}
		for i, lane := range lanes {
			fmt.Fprintf(w, "  worker-%d %s\n", i+1, lane)
		}
	}
}
