package sai

import (
	"reflect"
	"testing"
	"unsafe"

	"github.com/psp-framework/psp/internal/social"
)

func featurePosts() []*social.Post {
	return []*social.Post{
		post("1", "bench flashed it with a bdm probe on my truck, love it #chiptuning", 1000, 30),
		post("2", "flashed through the obd port on my car #chiptuning", 1000, 30),
		post("3", "remote ota push via the telematics account, terrible #chiptuning", 500, 10),
		post("4", "stolen with a relay attack on the fob, awful", 800, 5),
		post("5", "no method words here at all", 100, 1),
		post("6", "", 0, 0),
	}
}

// TestAnalyzeMatchesPerPostAPIs pins the single-tokenization feature
// path to the per-post classifiers it replaces inside the index.
func TestAnalyzeMatchesPerPostAPIs(t *testing.T) {
	for _, w := range []Weights{DefaultWeights(), {Views: 1, Interactions: 2, Popularity: 10}} {
		s := mustScorer(t, w)
		b, err := NewBuilder(s, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		vc, oc := NewVectorClassifier(), NewOwnerClassifier()
		posts := featurePosts()
		for i, f := range b.AnalyzePosts(posts) {
			p := posts[i]
			if f.Attraction != s.Attraction(p) {
				t.Errorf("post %s: attraction %v, Scorer says %v", p.ID, f.Attraction, s.Attraction(p))
			}
			gv, gok := f.Vector()
			wv, wok := vc.Classify(p)
			if gv != wv || gok != wok {
				t.Errorf("post %s: vector (%v, %v), Classify says (%v, %v)", p.ID, gv, gok, wv, wok)
			}
			if f.Insider != oc.IsInsider(p) {
				t.Errorf("post %s: insider %v, IsInsider says %v", p.ID, f.Insider, oc.IsInsider(p))
			}
		}
	}
}

// TestEntryOfMatchesBuildEntry checks that an entry assembled from
// features — however they were obtained — equals the per-post entry.
func TestEntryOfMatchesBuildEntry(t *testing.T) {
	b, err := NewBuilder(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	posts := featurePosts()
	features := b.AnalyzePosts(posts)
	got := EntryOf("t", []string{"chiptuning"}, features)
	want := b.BuildEntry(TopicPosts{Topic: "t", Tags: []string{"chiptuning"}, Posts: posts})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("EntryOf = %+v, BuildEntry = %+v", got, want)
	}
	if got.Score != b.Scorer().Total(posts) {
		t.Errorf("entry score %v, Scorer.Total %v", got.Score, b.Scorer().Total(posts))
	}
	if got.Insider != NewOwnerClassifier().MajorityInsider(posts) {
		t.Error("entry insider flag disagrees with OwnerClassifier.MajorityInsider")
	}
}

// TestPostFeaturesSize keeps the per-post memo lean: the incremental
// path holds one value per listed post.
func TestPostFeaturesSize(t *testing.T) {
	if n := unsafe.Sizeof(PostFeatures{}); n > 16 {
		t.Errorf("PostFeatures is %d bytes, want at most 16", n)
	}
}
