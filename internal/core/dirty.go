package core

import (
	"sort"

	"github.com/psp-framework/psp/internal/social"
)

// DirtySet names the workflow slices a batch of newly ingested posts
// can affect: the keyword-group topics and threat scenarios whose
// platform queries would match at least one of the posts. The monitor
// surfaces it as freshness metadata; correctness of incremental
// re-assessment rests on the result cache's own delta matching, not on
// this summary.
type DirtySet struct {
	// Topics are the affected keyword-group topics, sorted.
	Topics []string `json:"topics,omitempty"`
	// Threats are the affected threat scenario IDs, sorted.
	Threats []string `json:"threats,omitempty"`
	// Posts is the number of posts examined.
	Posts int `json:"posts"`
}

// Empty reports whether the delta touches no workflow slice.
func (d DirtySet) Empty() bool { return len(d.Topics) == 0 && len(d.Threats) == 0 }

// DirtyForProfiles classifies a batch of new posts, profiled for
// matching, against the framework's keyword database (seed and learned
// tags) and the input's threat scenarios, using the exact query
// predicate of the social substrate.
func (f *Framework) DirtyForProfiles(in SocialInput, profiles []*social.PostProfile) DirtySet {
	d := DirtySet{Posts: len(profiles)}
	if len(profiles) == 0 {
		return d
	}
	anyMatch := func(tags []string) bool {
		m := tagQuery(tags, in).Matcher()
		for _, pp := range profiles {
			if m.Matches(pp) {
				return true
			}
		}
		return false
	}
	for _, g := range f.keywords.Groups() {
		if anyMatch(g.AllTags()) {
			d.Topics = append(d.Topics, g.Topic)
		}
	}
	for _, threat := range in.Threats {
		if threat == nil || len(threat.Keywords) == 0 {
			continue
		}
		if anyMatch(threat.Keywords) {
			d.Threats = append(d.Threats, threat.ID)
		}
	}
	sort.Strings(d.Topics)
	sort.Strings(d.Threats)
	return d
}
