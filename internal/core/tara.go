package core

import (
	"context"

	"github.com/psp-framework/psp/internal/tara"
)

// This file bridges the incremental TARA engine to the framework: the
// per-threat rating function fans out across the same bounded worker
// pool as the social workflow, and ThreatTuning deltas from the social
// loop become per-threat vector table overrides that mark exactly their
// threat IDs dirty.

// RatePlan rates the plan's dirty threats on the framework worker pool
// and commits the results. Results are written into per-index slots, so
// the merge order — and the committed result set — is deterministic
// regardless of pool size. The first rating error cancels the fan-out;
// the plan's dirty set is left intact for a retry.
func (f *Framework) RatePlan(ctx context.Context, p *tara.Plan) ([]*tara.ThreatResult, error) {
	rated := make([]*tara.ThreatResult, len(p.Dirty))
	err := forEachLimited(ctx, f.concurrency, len(p.Dirty), func(_ context.Context, i int) error {
		r, err := p.Rate(p.Dirty[i])
		if err != nil {
			return err
		}
		rated[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.Commit(rated)
}

// ApplyTunings installs the PSP-tuned vector tables of a social run as
// per-threat overrides on the analysis, returning the IDs of the
// threats whose effective table actually changed (and were therefore
// marked dirty). Tunings for threats the analysis does not contain are
// skipped, as are tables rating-equal to the installed override — so
// repeated social generations with unchanged learning re-rate nothing.
func ApplyTunings(a *tara.Analysis, tunings []*ThreatTuning) ([]string, error) {
	var changed []string
	for _, tn := range tunings {
		if tn == nil || tn.Threat == nil || tn.Table == nil {
			continue
		}
		if a.Threat(tn.Threat.ID) == nil {
			continue
		}
		did, err := a.SetThreatTable(tn.Threat.ID, tn.Table)
		if err != nil {
			return changed, err
		}
		if did {
			changed = append(changed, tn.Threat.ID)
		}
	}
	return changed, nil
}
