package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// TestRestoreModelDeltaEqualsCold is a seeded model test of the warm
// restart path. Each case runs a random sequence of steps — ingest a
// batch, flush it through the result cache, sometimes save the cache
// through its binary form, sometimes restore a fresh cache from the
// last save and replay every post ingested since — over a local store
// and through a federated Multi, with the poisoning defence on and off.
// Three invariants hold:
//
//   - after every flush, the published result is reflect.DeepEqual to a
//     cold RunSocial over the same corpus;
//   - after every restore, a RunSocialDelta before the catch-up — the
//     monitor's restored generation — equals the result published at
//     the last save, and tokenizes no post;
//   - the first flush after a restore tokenizes exactly the posts new to
//     each re-drained listing, plus — only for a co-occurrence graph the
//     saved state could not extend — the listing's other posts. A cache
//     that lost its features or its graphs in the restore tokenizes more
//     and fails.
func TestRestoreModelDeltaEqualsCold(t *testing.T) {
	for _, federated := range []bool{false, true} {
		for _, filter := range []bool{false, true} {
			federated, filter := federated, filter
			t.Run(fmt.Sprintf("federated=%v/filter=%v", federated, filter), func(t *testing.T) {
				var redrains, rebuilds int
				for seed := int64(1); seed <= 2; seed++ {
					r, b := runRestoreModel(t, seed, federated, filter)
					redrains, rebuilds = redrains+r, rebuilds+b
				}
				if redrains == 0 {
					t.Fatal("no restore re-drained a listing it could reuse; the model test is vacuous")
				}
				if filter && rebuilds == 0 {
					t.Fatal("no restore rebuilt a graph; the model test misses the non-superset path")
				}
			})
		}
	}
}

// restoreModel is one case's system under test and its bookkeeping.
type restoreModel struct {
	t       *testing.T
	rng     *rand.Rand
	fw      *Framework
	in      SocialInput
	backend social.Searcher
	stores  []*social.Store
	// lookup resolves a listed post ID the way the backend lists it.
	lookup func(id string) *social.Post
	rc     *ResultCache
	// last is the result the last flush published.
	last *SocialResult
	// saved is the last saved cache in its binary forms and the result
	// published with it; sinceSave the posts ingested after it — a
	// restore's catch-up delta.
	savedFills, savedMemos []byte
	savedResult            *SocialResult
	sinceSave              []*social.Post
	seq                    int
}

// runRestoreModel runs one case, returning how many listings its
// restores re-drained over a reusable memo and how many co-occurrence
// graphs they had to rebuild.
func runRestoreModel(t *testing.T, seed int64, federated, filter bool) (redrains, rebuilds int) {
	t.Helper()
	base, err := social.Generate(social.DefaultCorpusSpec(seed))
	if err != nil {
		t.Fatal(err)
	}
	m := &restoreModel{t: t, rng: rand.New(rand.NewSource(seed))}
	names := []string{"alpha"}
	if federated {
		names = append(names, "beta")
	}
	for range names {
		m.stores = append(m.stores, social.NewStore())
	}
	// Every sixth post of the reference corpus keeps cold reference runs
	// cheap while every topic stays populated.
	for i := 0; i < len(base); i += 6 {
		if err := m.stores[i%len(m.stores)].Add(base[i]); err != nil {
			t.Fatal(err)
		}
	}
	if federated {
		var sources []social.PlatformSource
		byName := map[string]*social.Store{}
		for i, name := range names {
			sources = append(sources, social.PlatformSource{Name: name, Searcher: m.stores[i]})
			byName[name] = m.stores[i]
		}
		multi, err := social.NewMulti(sources...)
		if err != nil {
			t.Fatal(err)
		}
		m.backend = multi
		m.lookup = func(id string) *social.Post {
			name, raw, _ := strings.Cut(id, ":")
			store := byName[name]
			if store == nil {
				return nil
			}
			p := store.Post(raw)
			if p == nil {
				return nil
			}
			cp := *p
			cp.ID = id
			return &cp
		}
	} else {
		m.backend = m.stores[0]
		m.lookup = m.stores[0].Post
	}
	m.fw, err = New(Config{Searcher: m.backend, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	imm := stateThreat()
	imm.ID, imm.Name, imm.Keywords = "TS-IMMO-01", "Immobilizer bypass", []string{"immobilizer", "keyprog"}
	m.in = SocialInput{Threats: []*tara.ThreatScenario{ecmThreat(), imm}, FilterInauthentic: filter}
	m.rc = NewResultCache(m.backend)
	m.flush(nil)

	for step := 0; step < 6; step++ {
		batch := m.ingest(m.rng.Intn(16))
		m.flush(batch)
		if m.rng.Intn(2) == 0 {
			m.save()
		}
		if m.savedFills != nil && m.rng.Intn(5) < 2 {
			r, b := m.restore()
			redrains, rebuilds = redrains+r, rebuilds+b
		}
	}
	// Every case ends on a restore whose catch-up delta displaces a post
	// the saved memos hold: with the poisoning defence on, a campaign
	// copy older and one newer than the three a listing keeps push one
	// of those out, whichever end the listing keeps.
	m.flush(m.campaign(10, 11, 12))
	m.save()
	m.campaign(9, 13)
	r, b := m.restore()
	return redrains + r, rebuilds + b
}

// campaign ingests one copy of a repeated text per given hour.
func (m *restoreModel) campaign(hours ...int) []*social.Post {
	batch := make([]*social.Post, 0, len(hours))
	for _, h := range hours {
		m.seq++
		batch = append(batch, m.add(&social.Post{
			ID:        fmt.Sprintf("model-%04d", m.seq),
			Author:    fmt.Sprintf("campaigner%d", m.seq),
			Text:      "#dpfdelete blast campaign",
			CreatedAt: time.Date(2023, 4, 2, h, 0, 0, 0, time.UTC),
			Region:    social.RegionEurope,
			Metrics:   social.Metrics{Views: 300, Likes: 12},
		}))
	}
	return batch
}

// add ingests one post into a random store of the backend.
func (m *restoreModel) add(p *social.Post) *social.Post {
	if err := m.stores[m.rng.Intn(len(m.stores))].Add(p); err != nil {
		m.t.Fatal(err)
	}
	m.sinceSave = append(m.sinceSave, p)
	return p
}

// modelTags is the vocabulary of ingested posts: monitored group and
// threat tags, tags the learner may pick up, and filler.
var modelTags = []string{
	"dpfdelete", "egrdelete", "chiptuning", "remap", "stage1", "ecutune",
	"immobilizer", "keyprog", "gpsblocker", "odometer", "adblue",
	"newtrick", "bypasskit", "fillerchatter",
}

var modelWords = []string{
	"my", "install", "gains", "kit", "stolen", "excavator", "truck", "obd",
	"flashed", "tool", "cheap", "works",
}

// copypasta are the texts a poisoning campaign repeats.
var copypasta = []string{
	"best #chiptuning #remap deal dm me",
	"#dpfdelete kit installed my truck runs great",
}

// ingest adds n random posts to the backend's stores. Repeated texts,
// a bursting author and bought reach give the poisoning defence posts
// to drop, some of which make earlier posts of a listing drop too.
func (m *restoreModel) ingest(n int) []*social.Post {
	batch := make([]*social.Post, 0, n)
	for i := 0; i < n; i++ {
		m.seq++
		var text string
		if m.rng.Intn(5) == 0 {
			text = copypasta[m.rng.Intn(len(copypasta))]
		} else {
			var sb strings.Builder
			for w := 0; w < 2+m.rng.Intn(3); w++ {
				sb.WriteString(modelWords[m.rng.Intn(len(modelWords))] + " ")
			}
			for k := 0; k < 1+m.rng.Intn(3); k++ {
				sb.WriteString("#" + modelTags[m.rng.Intn(len(modelTags))] + " ")
			}
			text = strings.TrimSpace(sb.String())
		}
		author := fmt.Sprintf("user%d", m.seq)
		if m.rng.Intn(3) == 0 {
			author = "burster"
		}
		metrics := social.Metrics{Views: 10 + m.rng.Intn(2000), Likes: m.rng.Intn(40), Replies: m.rng.Intn(5)}
		if m.rng.Intn(10) == 0 {
			metrics = social.Metrics{Views: 9000}
		}
		batch = append(batch, m.add(&social.Post{
			ID:        fmt.Sprintf("model-%04d", m.seq),
			Author:    author,
			Text:      text,
			CreatedAt: time.Date(2023, 4, 1+m.rng.Intn(3), m.rng.Intn(24), m.rng.Intn(60), 0, 0, time.UTC),
			Region:    social.RegionEurope,
			Metrics:   metrics,
		}))
	}
	return batch
}

// flush invalidates the batch, runs the delta workflow and checks it
// against a cold run over the same corpus.
func (m *restoreModel) flush(batch []*social.Post) {
	m.t.Helper()
	ctx := context.Background()
	m.rc.InvalidateProfiles(social.ProfilePosts(batch))
	warm, err := m.fw.RunSocialDelta(ctx, m.in, m.rc)
	if err != nil {
		m.t.Fatal(err)
	}
	cold, err := m.fw.RunSocial(ctx, m.in)
	if err != nil {
		m.t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		m.t.Fatalf("delta result diverged from a cold run:\n%+v\n%+v", warm.Index.Entries, cold.Index.Entries)
	}
	m.last = warm
}

// save records the cache's binary image, as the monitor does after a
// publication.
func (m *restoreModel) save() {
	m.savedFills = AppendFills(nil, m.rc.ExportFills())
	m.savedMemos = AppendMemos(nil, m.rc.ExportMemos())
	m.savedResult = m.last
	m.sinceSave = nil
}

// restore replaces the cache with one imported from the last save,
// re-derives the saved result from it, flushes the catch-up delta, and
// checks what the flush tokenized. It
// returns the number of listings the flush re-drained over a restored
// memo, and how many of those rebuilt their graph.
func (m *restoreModel) restore() (redrains, rebuilds int) {
	m.t.Helper()
	fills, err := DecodeFills(m.savedFills)
	if err != nil {
		m.t.Fatal(err)
	}
	memos, err := DecodeMemos(m.savedMemos)
	if err != nil {
		m.t.Fatal(err)
	}
	m.rc = NewResultCache(m.backend)
	if n := m.rc.ImportFills(fills, memos, m.lookup); n != len(fills) {
		m.t.Fatalf("restored %d of %d fills", n, len(fills))
	}
	if len(m.rc.slices) != len(memos) {
		m.t.Fatalf("restored %d of %d memos", len(m.rc.slices), len(memos))
	}
	before := memoViews(fills, memos)
	res, err := m.fw.RunSocialDelta(context.Background(), m.in, m.rc)
	if err != nil {
		m.t.Fatal(err)
	}
	if !reflect.DeepEqual(res, m.savedResult) {
		m.t.Fatalf("the restored cache re-derived another result than the saved one:\n%+v\n%+v", res.Index.Entries, m.savedResult.Index.Entries)
	}
	if got := m.rc.tokenized.Load(); got != 0 {
		m.t.Fatalf("re-deriving the saved result tokenized %d posts, want 0", got)
	}
	m.flush(m.sinceSave)
	after := memoViews(m.rc.ExportFills(), m.rc.ExportMemos())

	want := 0
	for sig, a := range after {
		b, ok := before[sig]
		reused := 0
		for _, id := range a.ids {
			if b.held[id] {
				reused++
			}
		}
		want += len(a.ids) - reused
		if a.graph && (!b.graph || reused != len(b.ids)) {
			want += reused // a graph the saved one cannot seed is rebuilt
			if reused > 0 {
				rebuilds++
			}
		}
		if ok && reused > 0 && (reused != len(a.ids) || reused != len(b.ids)) {
			redrains++
		}
	}
	if got := m.rc.tokenized.Load(); got != int64(want) {
		m.t.Fatalf("first flush after restore tokenized %d posts, want %d", got, want)
	}
	return redrains, rebuilds
}

// memoView is one memo as its posts' IDs.
type memoView struct {
	ids   []string
	held  map[string]bool
	graph bool
}

func memoViews(fills []FillState, memos []MemoState) map[string]memoView {
	byKey := make(map[string][]string, len(fills))
	for _, f := range fills {
		byKey[cacheKey(f.Query.Canonical())] = f.PostIDs
	}
	out := make(map[string]memoView, len(memos))
	for _, ms := range memos {
		ids := byKey[ms.Key]
		if ms.Kept != nil {
			kept := make([]string, len(ms.Kept))
			for i, j := range ms.Kept {
				kept[i] = ids[j]
			}
			ids = kept
		}
		v := memoView{ids: ids, held: make(map[string]bool, len(ids)), graph: ms.Graph != nil}
		for _, id := range ids {
			v.held[id] = true
		}
		out[ms.Sig] = v
	}
	return out
}
