package monitor

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// benchStore64k builds the reference corpus padded to ~64k posts with
// background chatter, mirroring the scaling fixture of the top-level
// benchmarks: the monitored deployment watches a large mixed feed of
// which the attack topics are a small slice.
var (
	bench64kOnce  sync.Once
	bench64kPosts []*social.Post
	bench64kErr   error
)

func bench64kCorpus(b *testing.B) []*social.Post {
	b.Helper()
	bench64kOnce.Do(func() {
		posts, err := social.Generate(social.DefaultCorpusSpec(42))
		if err != nil {
			bench64kErr = err
			return
		}
		filler := 64000 - len(posts)
		pad, err := social.Generate(social.GeneratorSpec{
			Seed:      43,
			FirstYear: 2019,
			LastYear:  2023,
			Topics: []social.TopicSpec{{
				Key:          "filler-chatter",
				Tags:         []string{"fillerchatter"},
				Applications: []string{"car", "truck"},
				YearlyVolume: map[int]int{
					2019: filler / 5, 2020: filler / 5, 2021: filler / 5,
					2022: filler / 5, 2023: filler - 4*(filler/5),
				},
				VectorMix: map[string]float64{
					social.VectorKeyAdjacent: 0.5, social.VectorKeyNetwork: 0.5,
				},
			}},
		})
		if err != nil {
			bench64kErr = err
			return
		}
		// Re-ID the padding so it cannot collide with the base corpus.
		for i, p := range pad {
			p.ID = fmt.Sprintf("pad%06d", i)
		}
		bench64kPosts = append(posts, pad...)
	})
	if bench64kErr != nil {
		b.Fatal(bench64kErr)
	}
	return bench64kPosts
}

func newBench64kStore(b *testing.B) *social.Store {
	b.Helper()
	store := social.NewStore()
	if err := store.Add(bench64kCorpus(b)...); err != nil {
		b.Fatal(err)
	}
	return store
}

func benchInput() core.SocialInput {
	return core.SocialInput{Threats: []*tara.ThreatScenario{{
		ID: "TS-ECM", Name: "ECM reprogramming",
		DamageIDs: []string{"DS-01"},
		Property:  tara.PropertyIntegrity,
		STRIDE:    tara.Tampering,
		Profiles:  []tara.AttackerProfile{tara.ProfileInsider},
		Vector:    tara.VectorPhysical,
		Keywords:  []string{"chiptuning", "ecutune", "remap", "stage1"},
	}}}
}

// benchDeltaSeq keeps delta IDs unique across benchmark re-invocations
// over a shared store.
var benchDeltaSeq atomic.Int64

// benchDelta builds a 100-post delta touching one low-volume keyword
// topic — the steady-trickle shape continuous monitoring exists for.
func benchDelta(iter int) []*social.Post {
	seq := benchDeltaSeq.Add(1)
	delta := make([]*social.Post, 0, 100)
	for i := 0; i < 100; i++ {
		delta = append(delta, &social.Post{
			ID:        fmt.Sprintf("bench-delta-%d-%d-%03d", seq, iter, i),
			Author:    fmt.Sprintf("trickle%d", i%7),
			Text:      "fitted a #gpsblocker sleeve in the cab",
			CreatedAt: time.Date(2023, 4, 1, iter%24, i%60, i/60, 0, time.UTC),
			Region:    social.RegionEurope,
			Metrics:   social.Metrics{Views: 90 + i, Likes: 4},
		})
	}
	return delta
}

// newLatencyServer exposes a store over the HTTP search API with a
// fixed per-request delay, modelling the WAN round trip to a public
// platform.
func newLatencyServer(b *testing.B, store *social.Store, d time.Duration) string {
	b.Helper()
	inner := social.NewServer(store, nil).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		inner.ServeHTTP(w, r)
	}))
	b.Cleanup(srv.Close)
	return srv.URL
}

// BenchmarkRunSocialCold64k is the baseline: a full Fig. 7 run over the
// 64k-post corpus, the cost the batch deployment pays for every
// refresh.
func BenchmarkRunSocialCold64k(b *testing.B) {
	store := newBench64kStore(b)
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		b.Fatal(err)
	}
	in := benchInput()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fw.RunSocial(ctx, in)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Index.Entries) == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkIncrementalDelta64k measures one monitoring step: ingest a
// 100-post delta into the 64k corpus, patch the cached listings it
// matches, re-assess through the result cache. Acceptance target: ≥ 5×
// faster than the cold run above (only the touched topic re-scores,
// from its patched listing, tokenizing just the posts new to it; every
// other slice is served from memos).
func BenchmarkIncrementalDelta64k(b *testing.B) {
	store := newBench64kStore(b)
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		b.Fatal(err)
	}
	in := benchInput()
	ctx := context.Background()
	rc := core.NewResultCache(store)
	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		delta := benchDelta(i)
		b.StartTimer()
		if err := store.Add(delta...); err != nil {
			b.Fatal(err)
		}
		rc.PatchProfiles(social.ProfilePosts(delta))
		res, err := fw.RunSocialDelta(ctx, in, rc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Index.Entries) == 0 {
			b.Fatal("empty index")
		}
	}
}

// BenchmarkRestoredDelta64k measures a warm restart's first step over
// the 64k corpus: decode the saved result cache — fills and slice memos
// in their binary forms — import it into a fresh cache, then ingest a
// 1k-post delta (100 topical posts, 900 of background chatter), patch
// and re-assess. The restored memos make this cost what
// BenchmarkIncrementalDelta64k's in-process step costs, plus the decode
// and import. Each iteration restores the state saved after the
// previous one, untimed, as a restarted monitor does after every
// publication.
func BenchmarkRestoredDelta64k(b *testing.B) {
	store := newBench64kStore(b)
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		b.Fatal(err)
	}
	in := benchInput()
	ctx := context.Background()
	rc := core.NewResultCache(store)
	if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
		b.Fatal(err)
	}
	save := func(rc *core.ResultCache) (fills, memos []byte) {
		return core.AppendFills(nil, rc.ExportFills()), core.AppendMemos(nil, rc.ExportMemos())
	}
	fillBytes, memoBytes := save(rc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		delta := benchDelta(i)
		for j := 0; j < 900; j++ {
			p := *delta[j%len(delta)]
			p.ID = fmt.Sprintf("%s-chatter-%03d", delta[0].ID, j)
			p.Text = "idle #fillerchatter about the weather"
			delta = append(delta, &p)
		}
		b.StartTimer()
		fills, err := core.DecodeFills(fillBytes)
		if err != nil {
			b.Fatal(err)
		}
		memos, err := core.DecodeMemos(memoBytes)
		if err != nil {
			b.Fatal(err)
		}
		rc := core.NewResultCache(store)
		if n := rc.ImportFills(fills, memos, store.Post); n != len(fills) {
			b.Fatalf("restored %d of %d fills", n, len(fills))
		}
		if err := store.Add(delta...); err != nil {
			b.Fatal(err)
		}
		rc.PatchProfiles(social.ProfilePosts(delta))
		res, err := fw.RunSocialDelta(ctx, in, rc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Index.Entries) == 0 {
			b.Fatal("empty index")
		}
		b.StopTimer()
		fillBytes, memoBytes = save(rc)
		b.StartTimer()
	}
}

// BenchmarkIncrementalDelta64kRemote repeats the comparison in the
// remote deployment shape (HTTP platform with a simulated 5 ms round
// trip): the cache also eliminates the paged drains of untouched
// listings (the touched ones re-drain: the client is not the store the
// delta went into), so the incremental advantage widens with platform
// latency.
func BenchmarkIncrementalDelta64kRemote(b *testing.B) {
	store := newBench64kStore(b)
	srv := newLatencyServer(b, store, 5*time.Millisecond)
	client := social.NewClient(srv, nil)
	fw, err := core.New(core.Config{Searcher: client})
	if err != nil {
		b.Fatal(err)
	}
	in := benchInput()
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fw.RunSocial(ctx, in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		rc := core.NewResultCache(client)
		if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			delta := benchDelta(1000 + i)
			b.StartTimer()
			if err := store.Add(delta...); err != nil {
				b.Fatal(err)
			}
			rc.InvalidateProfiles(social.ProfilePosts(delta))
			if _, err := fw.RunSocialDelta(ctx, in, rc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
