package track

import "mirza/internal/telemetry"

// FlushTelemetry folds m's common counters into reg as
// track_*_total counters labelled with the tracker's policy name plus any
// extra labels (typically the sub-channel). It walks the Unwrap chain so
// decorators such as the fault-injection wrapper stay transparent; a
// mitigator that never exposes StatsSource flushes nothing. Call it once
// per simulation, after the run completes: counters are cumulative, so a
// second flush would double-count.
func FlushTelemetry(reg *telemetry.Registry, m Mitigator, extra ...telemetry.Label) {
	if !reg.Enabled() || m == nil {
		return
	}
	policy := m.Name()
	src := Source(m)
	if src == nil {
		return
	}
	s := src.TrackStats()
	labels := append([]telemetry.Label{telemetry.L("policy", policy)}, extra...)
	reg.Counter("track_acts_total", labels...).Add(s.ACTs)
	reg.Counter("track_mitigations_total", labels...).Add(s.Mitigations)
	reg.Counter("track_alerts_wanted_total", labels...).Add(s.AlertsWanted)
	reg.Counter("track_rfms_total", labels...).Add(s.RFMs)
	reg.Counter("track_insertions_total", labels...).Add(s.Insertions)
	reg.Counter("track_evictions_total", labels...).Add(s.Evictions)
}

// Source resolves m (or anything it decorates, walking the Unwrap chain) to
// its StatsSource; nil when nothing in the chain exposes one. The protocol
// auditor uses it to compare tracker-side mitigation counts against the
// channel-side counters without being fooled by decorators.
func Source(m Mitigator) StatsSource {
	for m != nil {
		if src, ok := m.(StatsSource); ok {
			return src
		}
		u, ok := m.(interface{ Unwrap() Mitigator })
		if !ok {
			return nil
		}
		m = u.Unwrap()
	}
	return nil
}
