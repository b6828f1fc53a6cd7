package server

import (
	"runtime/debug"

	"astrx/internal/telemetry"
)

// telemetrySampleEvery resolves the manager's sampling cadence: 0 means
// telemetry.DefaultSampleEvery, negative disables stage timing.
func (m *Manager) telemetrySampleEvery() int {
	switch every := m.opt.TelemetrySampleEvery; {
	case every < 0:
		return 0
	case every == 0:
		return telemetry.DefaultSampleEvery
	default:
		return every
	}
}

// jobTimer returns the job's per-stage eval timer, creating it on first
// use (the first supervised attempt). One timer serves a job across
// attempts, so a retried job's stage breakdown is cumulative. oblx.Run
// copies its breakdown onto each anneal span and records its samples as
// eval spans in the job's trace, which feed the
// oblxd_eval_stage_seconds histograms (attachJobTrace).
func (m *Manager) jobTimer(j *Job) *telemetry.EvalTimer {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.timer == nil {
		j.timer = telemetry.NewEvalTimer(m.telemetrySampleEvery())
	}
	return j.timer
}

// buildVersion extracts a human-useful version from the binary's build
// info: the module version when stamped, else the VCS revision, else
// "devel".
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && len(s.Value) >= 12 {
			return s.Value[:12]
		}
	}
	return "devel"
}
