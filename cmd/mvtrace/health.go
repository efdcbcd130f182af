package main

import (
	"fmt"
	"io"
	"strings"

	"mvml/internal/health"
	"mvml/internal/reliability"
)

// projection compares the paper's offline α against the stream's measured α
// inside the three-version failure model (Eq. 1), holding p at the Table IV
// default.
type projection struct {
	P             float64 `json:"p"`
	AlphaOffline  float64 `json:"alpha_offline"`
	AlphaMeasured float64 `json:"alpha_measured"`
	FailOffline   float64 `json:"failure_probability_offline_alpha"`
	FailMeasured  float64 `json:"failure_probability_measured_alpha"`
}

func project(alpha float64) projection {
	base := reliability.DefaultParams()
	meas := base.WithAlpha(alpha)
	return projection{
		P:             base.P,
		AlphaOffline:  base.Alpha,
		AlphaMeasured: meas.Alpha,
		FailOffline:   reliability.EgeFailureProbability(base.P, base.Alpha),
		FailMeasured:  reliability.EgeFailureProbability(meas.P, meas.Alpha),
	}
}

// cmdHealth replays the export through the streaming health engine and
// renders the resulting report: the verdict timeline, incident windows, SLO
// budget consumption, detected change-points, the online α trajectory, and a
// reliability projection that substitutes the measured α into the paper's
// three-version failure model. Because the engine advances only on span
// timestamps, and its parameters are constants, the replayed report
// reproduces exactly what a live engine attached to the same stream decided.
//
// With -require-incident it fails unless the stream shows a full
// detected-incident arc: at least one non-healthy incident window, at least
// one rejuvenation, some version going critical and later returning to
// healthy, and a finite online α — the CI smoke test's assertion that
// compromise → detection → rejuvenation → recovery actually happened and was
// measured.
func cmdHealth(args []string, w, stderr io.Writer) error {
	fs, in := newFlagSet("health", "spans.jsonl", stderr)
	format := formatFlag(fs)
	requireIncident := fs.Bool("require-incident", false,
		"exit non-zero unless the stream shows an incident window, a rejuvenation, and a final healthy verdict")
	if err := parse(fs, args, format); err != nil {
		return err
	}
	recs, err := load(*in)
	if err != nil {
		return err
	}

	rep := health.Replay(recs, health.DefaultOptions())

	var proj *projection
	if rep.AlphaKnown {
		p := project(rep.AlphaFinal)
		proj = &p
	}

	if *format == "json" {
		if err := writeJSON(w, struct {
			Input       string         `json:"input"`
			Report      *health.Report `json:"report"`
			Reliability *projection    `json:"reliability_projection,omitempty"`
		}{*in, rep, proj}); err != nil {
			return err
		}
	} else {
		renderHealth(w, *in, rep, proj)
	}

	if *requireIncident {
		return checkIncidentArc(rep)
	}
	return nil
}

// checkIncidentArc is the CI gate: the replay must contain a detected
// incident window, a rejuvenation, a version that went critical and later
// recovered to healthy, and a measured (finite) online α.
func checkIncidentArc(rep *health.Report) error {
	switch {
	case len(rep.Incidents) == 0:
		return fmt.Errorf("require-incident: no incident window detected over %d spans", rep.Spans)
	case len(rep.Rejuvenations) == 0:
		return fmt.Errorf("require-incident: no rejuvenation observed")
	case !rep.AlphaKnown:
		return fmt.Errorf("require-incident: online alpha never measured (%d rounds decided)", rep.RoundsDecided)
	}
	// The arc itself: some version component degrades to critical, and later
	// transitions back to healthy (the post-rejuvenation reset).
	critical := map[string]bool{}
	for _, tr := range rep.Timeline {
		if !strings.HasPrefix(tr.Component, "version:") {
			continue
		}
		if tr.To == health.Critical {
			critical[tr.Component] = true
		}
		if tr.To == health.Healthy && critical[tr.Component] {
			return nil
		}
	}
	return fmt.Errorf("require-incident: no version went critical and recovered to healthy")
}

func renderHealth(w io.Writer, in string, rep *health.Report, proj *projection) {
	fmt.Fprintf(w, "%s · %d spans over %s · verdict %s\n\n",
		in, rep.Spans, dur(rep.Horizon), rep.Final.Overall)

	fmt.Fprintf(w, "voting: %d rounds decided, %d skipped\n", rep.RoundsDecided, rep.RoundsSkipped)
	if rep.AlphaKnown {
		fmt.Fprintf(w, "online alpha: %.4f over %d pair(s)\n", rep.AlphaFinal, len(rep.AlphaPairs))
		for _, p := range rep.AlphaPairs {
			fmt.Fprintf(w, "  %s ~ %s: %.4f (%d simultaneous / %d max)\n", p.A, p.B, p.Alpha, p.Both, p.MaxN)
		}
	} else {
		fmt.Fprintln(w, "online alpha: unmeasured (no disagreements in stream)")
	}

	fmt.Fprintln(w, "\nSLO error budgets:")
	for _, s := range rep.Final.SLOs {
		state := "ok"
		if s.Alerting {
			state = "ALERTING"
		}
		fmt.Fprintf(w, "  %-13s target %.3f · %d good / %d bad · budget %+.2f · burn %.2f/%.2f (short/long) · %d alert(s) · %s\n",
			s.Objective.Name, s.Objective.Target, s.Good, s.Bad,
			s.BudgetRemaining, s.BurnShort, s.BurnLong, s.Alerts, state)
	}

	if len(rep.Incidents) > 0 {
		fmt.Fprintln(w, "\nincident windows:")
		for _, iw := range rep.Incidents {
			state := "unresolved at end of stream"
			if iw.Resolved {
				state = "resolved"
			}
			fmt.Fprintf(w, "  %s → %s · peak %s · %s\n", dur(iw.Start), dur(iw.End), iw.Peak, state)
		}
	} else {
		fmt.Fprintln(w, "\nincident windows: none")
	}

	if len(rep.ChangePoints) > 0 {
		fmt.Fprintln(w, "\nchange-points:")
		for _, cp := range rep.ChangePoints {
			fmt.Fprintf(w, "  %s · %s · CUSUM %.1f\n", dur(cp.T), cp.Stream, cp.Stat)
		}
	}
	if len(rep.Rejuvenations) > 0 {
		fmt.Fprintln(w, "\nrejuvenations:")
		for _, r := range rep.Rejuvenations {
			fmt.Fprintf(w, "  %s · %s (%s)\n", dur(r.T), r.Version, r.Kind)
		}
	}

	if len(rep.Timeline) > 0 {
		fmt.Fprintln(w, "\nverdict timeline:")
		for _, tr := range rep.Timeline {
			fmt.Fprintf(w, "  %s · %-16s %s → %s · %s\n", dur(tr.T), tr.Component, tr.From, tr.To, tr.Reason)
		}
		if rep.TimelineTrunc > 0 {
			fmt.Fprintf(w, "  … %d transitions truncated\n", rep.TimelineTrunc)
		}
	}

	if len(rep.AlphaTraj) > 0 {
		fmt.Fprintln(w, "\nalpha trajectory:")
		for _, pt := range rep.AlphaTraj {
			fmt.Fprintf(w, "  %s · round %d · alpha %.4f\n", dur(pt.T), pt.Rounds, pt.Alpha)
		}
	}

	if proj != nil {
		fmt.Fprintf(w, "\nreliability projection (Eq. 1, p = %.4f):\n", proj.P)
		fmt.Fprintf(w, "  offline  alpha %.4f → failure probability %.6f\n", proj.AlphaOffline, proj.FailOffline)
		fmt.Fprintf(w, "  measured alpha %.4f → failure probability %.6f\n", proj.AlphaMeasured, proj.FailMeasured)
	}
}
