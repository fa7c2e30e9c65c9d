package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	psp "github.com/psp-framework/psp"
)

// Input generation. Every input derives from the -seed flag through
// math/rand sources, so one seed always yields the same posts, queries,
// ops and deltas; the system under test only ever sees those inputs.

// fillerWords and fillerTags make posts that match no monitored query:
// none is a keyword of the reference keyword DB or of a monitored
// threat, and they never co-occur with one, so the keyword learner
// cannot pick them up either.
var (
	fillerWords = []string{
		"fleet", "depot", "shift", "yard", "route", "haul", "crew", "site",
		"cargo", "schedule", "tyres", "service", "weather", "traffic", "rota", "canteen",
	}
	fillerTags = []string{
		"fillerchatter", "fleetlog", "depotnews", "haulage", "sitediary", "crewchat", "routeplan", "yardtalk",
	}
)

// hot* build posts carrying monitored keywords, phrased like the
// reference corpus so the vector classifier sees realistic method
// phrases. Each post belongs to one topic and carries only that topic's
// tags, as reference-corpus posts do: random cross-topic tag pairs would
// hand the keyword learner co-occurrences whose outcome — and with it
// the monitor's whole query set — changed from seed to seed.
//
// ingest-hot draws from the two largest topics, among them the ECM
// reprogramming topic TS-ECM-01 tracks, so every delta run re-derives a
// big slice of the index. restart-warm's deltas draw from the
// immobilizer-bypass topic TS-IMMO-01 tracks: enough to re-assess and
// re-persist the monitor state, cheap enough that open, restore and
// compaction stay the bulk of a cycle.
var (
	hotTopics     = topicsByKey("ecm-reprogramming", "dpf-delete")
	restartTopics = topicsByKey("immobilizer-bypass")
	hotSentiments = []string{
		"huge gains, totally worth it",
		"asking for a friend, anyone tried this",
		"ended in limp mode, regret everything",
		"great savings on fuel, works perfectly",
	}
	hotMethods = []string{
		"flashed through the obd port in minutes",
		"bench flashed it with a bdm probe",
		"plug-in obd dongle, job done",
		"remote ota push via the telematics account",
		"paired over bluetooth from the cab",
	}
	regions = []psp.Region{psp.RegionEurope, psp.RegionEurope, psp.RegionNorthAmerica, psp.RegionAsiaPacific, psp.RegionOther}
)

// postGen generates a stream of live posts. Timestamps follow a clock
// that advances 30 s per post, and each post arrives up to 36 h late,
// so a batch typically touches two day buckets (two store stripes).
type postGen struct {
	rng    *rand.Rand
	prefix string
	topics []psp.TopicSpec // nil generates filler chatter
	n      int
	clock  time.Time
}

func newPostGen(seed int64, prefix string, topics []psp.TopicSpec) *postGen {
	return &postGen{
		rng:    rand.New(rand.NewSource(seed)),
		prefix: fmt.Sprintf("%s-%d", prefix, seed),
		topics: topics,
		clock:  time.Date(2023, time.May, 1, 0, 0, 0, 0, time.UTC),
	}
}

// batch returns the next n posts.
func (g *postGen) batch(n int) []*psp.Post {
	out := make([]*psp.Post, n)
	for i := range out {
		g.n++
		at := g.clock.Add(time.Duration(g.n)*30*time.Second - time.Duration(g.rng.Int63n(int64(36*time.Hour))))
		out[i] = livePost(g.rng, fmt.Sprintf("%s-%07d", g.prefix, g.n), at, g.topics)
	}
	return out
}

// livePost builds one post: on one of topics, or filler chatter when
// topics is empty.
func livePost(rng *rand.Rand, id string, at time.Time, topics []psp.TopicSpec) *psp.Post {
	var text string
	if len(topics) > 0 {
		topic := topics[rng.Intn(len(topics))]
		text = fmt.Sprintf("%s — %s on my %s #%s",
			hotSentiments[rng.Intn(len(hotSentiments))], hotMethods[rng.Intn(len(hotMethods))],
			topic.Applications[rng.Intn(len(topic.Applications))], topic.Tags[rng.Intn(len(topic.Tags))])
	} else {
		words := make([]string, 0, 6)
		for i := 0; i < 4; i++ {
			words = append(words, fillerWords[rng.Intn(len(fillerWords))])
		}
		words = append(words, "#"+fillerTags[rng.Intn(len(fillerTags))], "#fillerchatter")
		text = strings.Join(words, " ")
	}
	views := 50 + rng.Intn(2000)
	return &psp.Post{
		ID:        id,
		Author:    fmt.Sprintf("feed%03d", rng.Intn(500)),
		Text:      text,
		CreatedAt: at,
		Region:    regions[rng.Intn(len(regions))],
		Metrics:   psp.PostMetrics{Views: views, Likes: views / 40, Reposts: views / 200, Replies: views / 300},
	}
}

// referenceSeed is pspd's default corpus seed. Every booted system
// holds this reference corpus, calibrated to the paper's case studies:
// another seed would change which keywords the learner picks up from
// it, and with them how much work every assessment does, so the load —
// not the corpus — is what -seed varies.
const referenceSeed = 42

// corpus returns the reference corpus generated from refSeed, padded
// with filler chatter generated from seed to total posts (never fewer
// than the reference corpus). The filler spans the same 2019 – April
// 2023 range and is re-IDed so it cannot collide with the reference
// posts.
func corpus(refSeed, seed int64, total int) ([]*psp.Post, error) {
	posts, err := psp.GenerateCorpus(psp.DefaultCorpusSpec(refSeed))
	if err != nil {
		return nil, err
	}
	filler := total - len(posts)
	if filler <= 0 {
		return posts, nil
	}
	perYear := filler / 5
	pad, err := psp.GenerateCorpus(psp.CorpusSpec{
		Seed:            seed + 1<<32,
		FirstYear:       2019,
		LastYear:        2023,
		FinalYearMonths: 4,
		Topics: []psp.TopicSpec{{
			Key:          "filler-chatter",
			Tags:         []string{"fillerchatter"},
			Applications: []string{"car", "truck"},
			YearlyVolume: map[int]int{2019: perYear, 2020: perYear, 2021: perYear, 2022: perYear, 2023: filler - 4*perYear},
			VectorMix:    map[string]float64{"adjacent": 0.5, "network": 0.5},
		}},
	})
	if err != nil {
		return nil, err
	}
	for i, p := range pad {
		p.ID = fmt.Sprintf("f%07d", i)
	}
	return append(posts, pad...), nil
}

// topicsByKey returns the reference corpus topics with the given keys.
func topicsByKey(keys ...string) []psp.TopicSpec {
	var out []psp.TopicSpec
	for _, t := range psp.DefaultCorpusSpec(referenceSeed).Topics {
		for _, k := range keys {
			if t.Key == k {
				out = append(out, t)
			}
		}
	}
	return out
}

// corpusStart and corpusDays bound the reference corpus timeline
// (January 2019 through April 2023).
var corpusStart = time.Date(2019, time.January, 1, 0, 0, 0, 0, time.UTC)

const corpusDays = 1581

// restartDelta is cycle c's restart-warm ingest: n posts confined to
// two consecutive day buckets inside the corpus timeline, one in twenty
// on a monitored topic so the delta run re-assesses and re-persists the
// monitor state, the rest filler.
func restartDelta(seed int64, c, n int) []*psp.Post {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	day := corpusStart.AddDate(0, 0, rng.Intn(corpusDays-2))
	out := make([]*psp.Post, n)
	for i := range out {
		at := day.Add(time.Duration(rng.Int63n(int64(48 * time.Hour))))
		var topics []psp.TopicSpec
		if i%20 == 0 {
			topics = restartTopics
		}
		out[i] = livePost(rng, fmt.Sprintf("rw-%d-%05d-%05d", seed, c, i), at, topics)
	}
	return out
}

// queryPool returns n federated queries in a seeded mix of three shapes:
// one topic tag, a pair of must-terms (method word + application), and
// an unfiltered 7-day window.
func queryPool(seed int64, n int) []psp.SocialQuery {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	var tags []string
	for _, t := range psp.DefaultCorpusSpec(referenceSeed).Topics {
		tags = append(tags, t.Tags...)
	}
	tags = append(tags, "fillerchatter")
	methods := []string{"obd", "bench", "bluetooth", "ota", "relay", "teardown", "wireless", "cloud"}
	apps := []string{"excavator", "truck", "tractor", "car"}
	out := make([]psp.SocialQuery, n)
	for i := range out {
		q := psp.SocialQuery{MaxResults: pageSize}
		switch rng.Intn(3) {
		case 0:
			q.AnyTags = []string{tags[rng.Intn(len(tags))]}
		case 1:
			q.MustTerms = []string{methods[rng.Intn(len(methods))], apps[rng.Intn(len(apps))]}
		default:
			q.Since = corpusStart.AddDate(0, 0, rng.Intn(corpusDays-7))
			q.Until = q.Since.AddDate(0, 0, 7)
		}
		out[i] = q
	}
	return out
}

// taraOp is the wire body of a tenant's k-th TARA op batch: a
// set_threat_table on the tenant's derived tampering threat, alternating
// between two tables so every op changes the model and dirties exactly
// one threat.
func taraOp(expect uint64, k int) map[string]any {
	table := map[string]any{
		"name":    "bench-a",
		"ratings": map[string]string{"physical": "high", "local": "high", "adjacent": "low", "network": "very_low"},
	}
	if k%2 == 1 {
		table = map[string]any{
			"name":    "bench-b",
			"ratings": map[string]string{"physical": "medium", "local": "high", "adjacent": "medium", "network": "low"},
		}
	}
	return map[string]any{
		"expect_version": expect,
		"ops":            []map[string]any{{"op": "set_threat_table", "id": "TS-TAMPER", "table": table}},
	}
}
