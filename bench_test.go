package psp

// The benchmark harness regenerates every table and figure of the paper
// (experiments E01–E15 of DESIGN.md) and runs the ablation studies
// A1–A5. Each benchmark measures the full pipeline behind its artifact
// and reports the shape metric that EXPERIMENTS.md records, via
// b.ReportMetric, so `go test -bench=.` doubles as the reproduction run.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/fault"
	"github.com/psp-framework/psp/internal/finance"
	"github.com/psp-framework/psp/internal/lifecycle"
	"github.com/psp-framework/psp/internal/market"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/standards"
	"github.com/psp-framework/psp/internal/tara"
	"github.com/psp-framework/psp/internal/vehicle"
)

// Shared fixtures: the corpus and dataset are deterministic, so building
// them once keeps the benchmarks focused on the pipelines.
var (
	fixtureOnce  sync.Once
	fixtureStore *social.Store
	fixtureData  *market.Dataset
	fixtureErr   error
)

func fixtures(b *testing.B) (*social.Store, *market.Dataset) {
	b.Helper()
	fixtureOnce.Do(func() {
		fixtureStore, fixtureErr = social.DefaultStore(42)
		if fixtureErr != nil {
			return
		}
		fixtureData, fixtureErr = market.DefaultDataset()
	})
	if fixtureErr != nil {
		b.Fatal(fixtureErr)
	}
	return fixtureStore, fixtureData
}

func benchFramework(b *testing.B, cfg core.Config) *core.Framework {
	b.Helper()
	store, ds := fixtures(b)
	if cfg.Searcher == nil {
		cfg.Searcher = store
	}
	if cfg.Market == nil {
		cfg.Market = ds
	}
	fw, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return fw
}

func benchECMThreat() *tara.ThreatScenario {
	return &tara.ThreatScenario{
		ID: "TS-ECM", Name: "ECM reprogramming",
		DamageIDs: []string{"DS-01"},
		Property:  tara.PropertyIntegrity,
		STRIDE:    tara.Tampering,
		Profiles:  []tara.AttackerProfile{tara.ProfileInsider},
		Vector:    tara.VectorPhysical,
		Keywords:  []string{"chiptuning", "ecutune", "remap", "stage1"},
	}
}

func excavatorInput() core.FinancialInput {
	return core.FinancialInput{
		Category:    market.CategoryDPFTampering,
		Application: "excavator",
		Region:      "EU",
		Year:        2022,
		MarketKind:  finance.NonMonopolistic,
		Maker:       market.MajorExcavatorMaker,
	}
}

// E14 / Fig. 1 — standards contribution graph.
func BenchmarkFig1StandardsGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, err := standards.ISO21434Graph()
		if err != nil {
			b.Fatal(err)
		}
		if g.ITShare() == 0 {
			b.Fatal("empty IT share")
		}
	}
}

// E15 / Fig. 2 — lifecycle with TARA reprocessing.
func BenchmarkFig2Lifecycle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lc := lifecycle.New(nil)
		if err := lc.RunToProduction(); err != nil {
			b.Fatal(err)
		}
		if lc.ReprocessingCount() != 6 {
			b.Fatalf("reprocessing count %d", lc.ReprocessingCount())
		}
	}
}

// E01 / Fig. 3 — attack potential aggregation over all level
// combinations (5×4×4×4×4 = 1280 profiles per iteration).
func BenchmarkFig3AttackPotential(b *testing.B) {
	w := tara.StandardPotentialWeights()
	th := tara.StandardPotentialThresholds()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t := tara.TimeOneDay; t <= tara.TimeBeyondSixMonths; t++ {
			for e := tara.ExpertiseLayman; e <= tara.ExpertiseMultipleExperts; e++ {
				for k := tara.KnowledgePublic; k <= tara.KnowledgeStrictlyConfidential; k++ {
					for wo := tara.WindowUnlimited; wo <= tara.WindowDifficult; wo++ {
						for q := tara.EquipmentStandard; q <= tara.EquipmentMultipleBespoke; q++ {
							r, err := tara.RatePotential(w, th, tara.AttackPotentialInput{
								Time: t, Expertise: e, Knowledge: k, Window: wo, Equipment: q,
							})
							if err != nil || !r.Valid() {
								b.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
}

// E04 / Fig. 4 — attack-surface classification and route enumeration.
func BenchmarkFig4Surfaces(b *testing.B) {
	top, err := vehicle.ReferenceArchitecture()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []vehicle.SurfaceClass{
			vehicle.SurfaceLongRange, vehicle.SurfaceShortRange, vehicle.SurfacePhysical,
		} {
			routes, err := top.AttackRoutes(s, "ECM")
			if err != nil || len(routes) == 0 {
				b.Fatal(err)
			}
		}
	}
}

// E02 / Fig. 5 — static G.9 table lookups.
func BenchmarkFig5AttackVector(b *testing.B) {
	tbl := tara.StandardVectorTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range tara.AllVectors() {
			if _, err := tbl.Rating(v); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E03 / Fig. 6 — CAL determination over the full matrix.
func BenchmarkFig6CAL(b *testing.B) {
	tbl := tara.StandardCALTable()
	impacts := []tara.ImpactRating{
		tara.ImpactNegligible, tara.ImpactModerate, tara.ImpactMajor, tara.ImpactSevere,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, imp := range impacts {
			for _, v := range tara.AllVectors() {
				if _, err := tbl.Determine(imp, v); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// E05 / Fig. 7 — the full social workflow.
func BenchmarkFig7Workflow(b *testing.B) {
	fw := benchFramework(b, core.Config{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fw.RunSocial(ctx, core.SocialInput{
			Threats: []*tara.ThreatScenario{benchECMThreat()},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tunings) != 1 {
			b.Fatal("missing tuning")
		}
	}
}

// E06 / Fig. 8 — weight tuning for one threat scenario.
func BenchmarkFig8WeightTuning(b *testing.B) {
	fw := benchFramework(b, core.Config{})
	ctx := context.Background()
	var physicalShare float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fw.RunSocial(ctx, core.SocialInput{
			DisableLearning: true,
			Threats:         []*tara.ThreatScenario{benchECMThreat()},
		})
		if err != nil {
			b.Fatal(err)
		}
		physicalShare = res.Tunings[0].VectorShares[tara.VectorPhysical]
	}
	b.ReportMetric(physicalShare, "physical-share")
}

// E07+E08 / Fig. 9 — both analysis windows back to back.
func BenchmarkFig9TimeWindows(b *testing.B) {
	fw := benchFramework(b, core.Config{})
	ctx := context.Background()
	cut := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	var allTimeTop, recentTop string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, err := fw.RunSocial(ctx, core.SocialInput{
			DisableLearning: true,
			Threats:         []*tara.ThreatScenario{benchECMThreat()},
		})
		if err != nil {
			b.Fatal(err)
		}
		recent, err := fw.RunSocial(ctx, core.SocialInput{
			Since:           cut,
			DisableLearning: true,
			Threats:         []*tara.ThreatScenario{benchECMThreat()},
		})
		if err != nil {
			b.Fatal(err)
		}
		allTimeTop = all.Tunings[0].Table.RankedVectors()[0].String()
		recentTop = recent.Tunings[0].Table.RankedVectors()[0].String()
	}
	if allTimeTop != "Physical" || recentTop != "Local" {
		b.Fatalf("trend inversion broken: all-time top %s, recent top %s", allTimeTop, recentTop)
	}
}

// E09 / Fig. 10 — the full financial workflow.
func BenchmarkFig10Financial(b *testing.B) {
	fw := benchFramework(b, core.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fw.RunFinancial(excavatorInput())
		if err != nil {
			b.Fatal(err)
		}
		if res.PAE != 1406 {
			b.Fatalf("PAE %d", res.PAE)
		}
	}
}

// E10 / Fig. 11 — break-even curve sampling.
func BenchmarkFig11BEP(b *testing.B) {
	fc := finance.FromUnits(145286, finance.EUR)
	ppia := finance.FromUnits(360, finance.EUR)
	vcu := finance.FromUnits(50, finance.EUR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		curve, err := finance.ComputeBEPCurve(fc, 3, ppia, vcu, 2812, 41)
		if err != nil || curve.BreakEvenUnits != 1406 {
			b.Fatal(err)
		}
	}
}

// E11 / Fig. 12 — the excavator SAI ranking.
func BenchmarkFig12SAI(b *testing.B) {
	fw := benchFramework(b, core.Config{})
	ctx := context.Background()
	var topProbability float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fw.RunSocial(ctx, core.SocialInput{
			Application: "excavator",
			Region:      social.RegionEurope,
		})
		if err != nil {
			b.Fatal(err)
		}
		top, err := res.Index.Top()
		if err != nil || top.Topic != "DPF delete" {
			b.Fatalf("top %v err %v", top.Topic, err)
		}
		topProbability = top.Probability
	}
	b.ReportMetric(topProbability, "top-probability")
}

// E12 / Eq. 6 — market value computation chain.
func BenchmarkEq6MarketValue(b *testing.B) {
	_, ds := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := ds.Sales.MarketShare(market.MajorExcavatorMaker, "excavator", "EU", 2022)
		if err != nil {
			b.Fatal(err)
		}
		pea, err := ds.Reports.PEA(market.CategoryDPFTampering, "excavator", "EU", 2022)
		if err != nil {
			b.Fatal(err)
		}
		pae, err := finance.PAE(ms, pea)
		if err != nil {
			b.Fatal(err)
		}
		mv, err := finance.MarketValue(pae, finance.FromUnits(360, finance.EUR))
		if err != nil || mv.Units() != 506160 {
			b.Fatalf("MV %v err %v", mv, err)
		}
	}
}

// E13 / Eq. 7 — adversary investment bound.
func BenchmarkEq7FixedCost(b *testing.B) {
	ppia := finance.FromUnits(360, finance.EUR)
	vcu := finance.FromUnits(50, finance.EUR)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fc, err := finance.InverseFixedCost(1406, ppia, vcu, 3)
		if err != nil || fc.Cents != 14528667 {
			b.Fatalf("FC %v err %v", fc, err)
		}
	}
}

// paddedStore builds the reference corpus plus `filler` synthetic posts
// that can never match an excavator-term query (outsider phrasing,
// car/truck applications, disjoint tags). Growing the corpus this way
// isolates how Store.Search scales with corpus size while the query's
// result set stays fixed.
func paddedStore(b *testing.B, filler int) *social.Store {
	return paddedStoreShards(b, filler, 0)
}

// paddedStoreShards is paddedStore over a store with an explicit
// lock-stripe count (0 = the library default).
func paddedStoreShards(b *testing.B, filler, shards int) *social.Store {
	b.Helper()
	spec := social.DefaultCorpusSpec(42)
	store := social.NewStoreShards(shards)
	posts, err := social.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Add(posts...); err != nil {
		b.Fatal(err)
	}
	if filler > 0 {
		pad, err := social.Generate(social.GeneratorSpec{
			Seed:      43,
			FirstYear: 2019,
			LastYear:  2023,
			Topics: []social.TopicSpec{{
				Key:          "filler-chatter",
				Tags:         []string{"fillerchatter"},
				Applications: []string{"car", "truck"},
				Insider:      false,
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
			b.Fatal(err)
		}
		// Re-ID the padding so it cannot collide with the base corpus.
		for i, p := range pad {
			p.ID = fmt.Sprintf("pad%06d", i)
		}
		if err := store.Add(pad...); err != nil {
			b.Fatal(err)
		}
	}
	return store
}

// BenchmarkStoreSearchTerms measures term-only queries (the Fig. 7
// target-application filter) while the corpus grows around a fixed
// result set. With the inverted term index the cost tracks the matching
// posting lists, not the corpus, so ns/op should stay near-flat as the
// store doubles — the old implementation scanned the full time index.
func BenchmarkStoreSearchTerms(b *testing.B) {
	for _, filler := range []int{0, 8000, 24000, 56000} {
		store := paddedStore(b, filler)
		b.Run(fmt.Sprintf("corpus-%d", store.Len()), func(b *testing.B) {
			ctx := context.Background()
			q := social.Query{MustTerms: []string{"excavator", "limp"}}
			page, err := store.Search(ctx, q)
			if err != nil || page.TotalMatches == 0 {
				b.Fatalf("query matches nothing (err %v)", err)
			}
			matches := page.TotalMatches
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Search(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(matches), "matches")
		})
	}
}

// mixedPostSeq hands out globally unique suffixes for posts written by
// the concurrent mixed benchmark: the fixture store persists across
// b.N calibration runs and -cpu settings, so IDs must never repeat.
var mixedPostSeq atomic.Int64

// mixedWritePost builds the n-th ingest post of the mixed benchmark.
// Timestamps advance one day per post, so a stream of writes walks the
// store's time buckets round-robin — concurrent writers land on
// different lock stripes — while staying chronological, the common
// ingest shape (appends keep every posting list sorted without
// re-sorting).
func mixedWritePost(n int64) *social.Post {
	return &social.Post{
		ID:        fmt.Sprintf("mix-%09d", n),
		Author:    "mixbench",
		Text:      "live #mixbench chatter from the fleet",
		CreatedAt: time.Date(2024, 1, 1, 12, 0, 0, 0, time.UTC).AddDate(0, 0, int(n)),
		Region:    social.RegionEurope,
		Metrics:   social.Metrics{Views: int(n % 1000)},
	}
}

// BenchmarkStoreConcurrentMixed is the monitoring daemon's load shape:
// goroutines alternating ingest (Add) and page queries (Search) over a
// ≥64k-post corpus. With one lock stripe every write serializes the
// whole store and pays an O(corpus) index merge; at 8 stripes writers
// touch 1/8th of the index under 1/8th of the lock footprint, so mixed
// throughput scales with the shard count (compare ns/op across the
// shards= sub-benchmarks). The obs=on variant re-runs the widest shape
// with a full psp_store_* recording surface attached — its ns/op
// against the obs=off twin is the metrics-overhead check (the atomic
// recorders must stay within a few percent).
func BenchmarkStoreConcurrentMixed(b *testing.B) {
	for _, cfg := range []struct {
		shards int
		obs    bool
	}{{1, false}, {2, false}, {4, false}, {8, false}, {8, true}} {
		store := paddedStoreShards(b, 56000, cfg.shards)
		if cfg.obs {
			store.SetMetrics(social.NewStoreMetrics(obs.NewRegistry()))
		}
		corpus := store.Len()
		name := fmt.Sprintf("corpus=%d/shards=%d", corpus, cfg.shards)
		if cfg.obs {
			name += "/obs=on"
		}
		b.Run(name, func(b *testing.B) {
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				q := social.Query{AnyTags: []string{"dpfdelete"}, MaxResults: 50}
				for i := 0; pb.Next(); i++ {
					if i%2 == 0 {
						if err := store.Add(mixedWritePost(mixedPostSeq.Add(1))); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					page, err := store.Search(ctx, q)
					if err != nil || page.TotalMatches == 0 {
						b.Errorf("search: %v (total %d)", err, page.TotalMatches)
						return
					}
				}
			})
		})
	}
}

// BenchmarkStoreReadUnderWrite measures search latency while a
// concurrent writer commits bursts non-stop — the read-dominated
// monitoring shape with ingest trickling in. The copy-on-write store
// serves every search from an immutable snapshot, so read latency must
// stay flat no matter how long the writer holds its stripe mutexes;
// the PR 3 locked store stalled each search behind the in-flight
// commit. Beyond the
// mean, the p50-ns/p99-ns metrics expose the tail, where lock
// convoying shows first.
func BenchmarkStoreReadUnderWrite(b *testing.B) {
	store := paddedStoreShards(b, 56000, 8)
	corpus := store.Len()
	b.Run(fmt.Sprintf("corpus=%d/shards=%d", corpus, 8), func(b *testing.B) {
		ctx := context.Background()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var stopOnce sync.Once
		// Deferred so a b.Fatalf below cannot leak the writer into the
		// rest of the bench binary.
		stopWriter := func() { stopOnce.Do(func() { close(stop); wg.Wait() }) }
		defer stopWriter()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// 256-post bursts walking consecutive day buckets: every
				// commit spans several stripes, like fleet ingest.
				burst := make([]*social.Post, 256)
				for j := range burst {
					burst[j] = mixedWritePost(mixedPostSeq.Add(1))
				}
				if err := store.Add(burst...); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		q := social.Query{AnyTags: []string{"dpfdelete"}, MaxResults: 50}
		lats := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			page, err := store.Search(ctx, q)
			lats = append(lats, time.Since(t0))
			if err != nil || page.TotalMatches == 0 {
				b.Fatalf("search: %v (total %d)", err, page.TotalMatches)
			}
		}
		b.StopTimer()
		stopWriter()
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		b.ReportMetric(float64(lats[len(lats)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lats[len(lats)*99/100].Nanoseconds()), "p99-ns")
	})
}

// windowStore builds a uniform 90-day corpus (720 posts/day ≈ 64k) on a
// 16-stripe store for the pruning benchmark.
func windowStore(b *testing.B) *social.Store {
	b.Helper()
	store := social.NewStoreShards(16)
	batch := make([]*social.Post, 0, 90*720)
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < 90; day++ {
		for k := 0; k < 720; k++ {
			batch = append(batch, &social.Post{
				ID:        fmt.Sprintf("win-%02d-%04d", day, k),
				Author:    "fleet",
				Text:      "telemetry #fleetwatch chatter",
				CreatedAt: base.AddDate(0, 0, day).Add(time.Duration(k) * 2 * time.Minute),
				Region:    social.RegionEurope,
				Metrics:   social.Metrics{Views: k},
			})
		}
	}
	if err := store.Add(batch...); err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkStoreSearchWindow pins window→stripe pruning: on a 90-day
// corpus at 16 stripes, a 1-day window maps to at most 2 time buckets
// and therefore visits at most 2 stripes — stripe-visits/op is the
// stripes attribute of one traced search of the fixed query, run
// before the untraced timed loop — while the unbounded listing fans
// out to all 16. The monitor's delta queries are exactly the 1-day
// shape.
func BenchmarkStoreSearchWindow(b *testing.B) {
	store := windowStore(b)
	day := time.Date(2024, 4, 15, 0, 0, 0, 0, time.UTC)
	for _, win := range []struct {
		name         string
		since, until time.Time
	}{
		{"1d", day, day.AddDate(0, 0, 1)},
		{"7d", day, day.AddDate(0, 0, 7)},
		{"all", time.Time{}, time.Time{}},
	} {
		b.Run(fmt.Sprintf("shards=%d/window=%s", 16, win.name), func(b *testing.B) {
			ctx := context.Background()
			q := social.Query{Since: win.since, Until: win.until, MaxResults: 100}
			tr := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
			store.SetTracer(tr)
			if _, err := store.Search(ctx, q); err != nil {
				b.Fatal(err)
			}
			store.SetTracer(nil)
			var visits float64
			for _, a := range tr.Spans(1)[0].Attrs {
				if a.Key == "stripes" {
					visits, _ = strconv.ParseFloat(a.Value, 64)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page, err := store.Search(ctx, q)
				if err != nil || len(page.Posts) != 100 {
					b.Fatalf("windowed page: %v (%d posts)", err, len(page.Posts))
				}
			}
			b.StopTimer()
			b.ReportMetric(visits, "stripe-visits/op")
		})
	}
}

// BenchmarkStoreSearchPage pins the streaming-pagination contract:
// producing one page costs O(page + seek), so per-page ns/op must stay
// near-flat while the corpus grows 8× around a fixed page size — both
// for the first page and for a keyset resume from the middle of the
// listing (the seek path). The pre-shard store materialized every
// match per page, scaling O(corpus) on this exact workload.
func BenchmarkStoreSearchPage(b *testing.B) {
	midCursor := social.EncodeCursor(social.Cursor{
		CreatedAt: time.Date(2021, 7, 1, 0, 0, 0, 0, time.UTC),
	})
	for _, filler := range []int{0, 56000} {
		store := paddedStore(b, filler)
		corpus := store.Len()
		for _, pos := range []struct{ name, token string }{
			{"first", ""},
			{"mid", midCursor},
		} {
			b.Run(fmt.Sprintf("corpus=%d/page=%s", corpus, pos.name), func(b *testing.B) {
				ctx := context.Background()
				q := social.Query{MaxResults: 100, PageToken: pos.token}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					page, err := store.Search(ctx, q)
					if err != nil || len(page.Posts) != 100 || page.NextToken == "" {
						b.Fatalf("page: %v (%d posts)", err, len(page.Posts))
					}
				}
			})
		}
	}
}

// withLatency adds a fixed delay to every request, modelling the WAN
// round trip to a public platform API (loopback alone hides the
// latency the remote deployment shape actually pays).
func withLatency(h http.Handler, d time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d)
		h.ServeHTTP(w, r)
	})
}

// BenchmarkRunSocialParallel runs the full Fig. 7 workflow against the
// platform over HTTP with a 10 ms simulated round trip — the deployment
// shape of the paper's prototype, which is latency-bound. The bounded
// fan-out of keyword-group, re-query and per-threat searches overlaps
// those round trips, so wall-clock time drops as Config.Concurrency
// rises even on one core.
func BenchmarkRunSocialParallel(b *testing.B) {
	store, ds := fixtures(b)
	srv := httptest.NewServer(withLatency(social.NewServer(store, nil).Handler(), 10*time.Millisecond))
	defer srv.Close()
	for _, concurrency := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("concurrency-%d", concurrency), func(b *testing.B) {
			fw, err := core.New(core.Config{
				Searcher:    social.NewClient(srv.URL, nil),
				Market:      ds,
				Concurrency: concurrency,
			})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fw.RunSocial(ctx, core.SocialInput{
					Threats: []*tara.ThreatScenario{benchECMThreat()},
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tunings) != 1 {
					b.Fatal("missing tuning")
				}
			}
		})
	}
}

// A1 — SAI attraction weight mixes: how the top probability moves with
// the views/interactions/popularity balance.
func BenchmarkAblationSAIWeights(b *testing.B) {
	mixes := []struct {
		name string
		w    sai.Weights
	}{
		{"views-only", sai.Weights{Views: 1, SentimentGate: true}},
		{"interactions-heavy", sai.Weights{Views: 1, Interactions: 4, Popularity: 5, SentimentGate: true}},
		{"default", sai.DefaultWeights()},
		{"popularity-heavy", sai.Weights{Views: 0.5, Interactions: 1, Popularity: 40, SentimentGate: true}},
	}
	for _, mix := range mixes {
		b.Run(mix.name, func(b *testing.B) {
			fw := benchFramework(b, core.Config{Weights: mix.w})
			ctx := context.Background()
			var top float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fw.RunSocial(ctx, core.SocialInput{
					Application:     "excavator",
					Region:          social.RegionEurope,
					DisableLearning: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				e, err := res.Index.Top()
				if err != nil {
					b.Fatal(err)
				}
				if e.Topic != "DPF delete" {
					b.Fatalf("mix %s flipped the top entry to %s", mix.name, e.Topic)
				}
				top = e.Probability
			}
			b.ReportMetric(top, "top-probability")
		})
	}
}

// A2 — sentiment gating on vs off.
func BenchmarkAblationSentimentGate(b *testing.B) {
	for _, gate := range []bool{true, false} {
		name := "gate-on"
		if !gate {
			name = "gate-off"
		}
		b.Run(name, func(b *testing.B) {
			w := sai.DefaultWeights()
			w.SentimentGate = gate
			fw := benchFramework(b, core.Config{Weights: w})
			ctx := context.Background()
			var physShare float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fw.RunSocial(ctx, core.SocialInput{
					DisableLearning: true,
					Threats:         []*tara.ThreatScenario{benchECMThreat()},
				})
				if err != nil {
					b.Fatal(err)
				}
				physShare = res.Tunings[0].VectorShares[tara.VectorPhysical]
			}
			b.ReportMetric(physShare, "physical-share")
		})
	}
}

// A3 — keyword auto-learning coverage gain.
func BenchmarkAblationKeywordLearning(b *testing.B) {
	for _, learning := range []bool{false, true} {
		name := "seeds-only"
		if learning {
			name = "with-learning"
		}
		b.Run(name, func(b *testing.B) {
			fw := benchFramework(b, core.Config{})
			ctx := context.Background()
			var posts float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fw.RunSocial(ctx, core.SocialInput{DisableLearning: !learning})
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, e := range res.Index.Entries {
					total += e.Posts
				}
				posts = float64(total)
			}
			b.ReportMetric(posts, "posts-covered")
		})
	}
}

// A4 — time-window sweep: physical share of the ECM threat by window
// start year.
func BenchmarkAblationWindowSweep(b *testing.B) {
	for _, year := range []int{2019, 2020, 2021, 2022, 2023} {
		b.Run(time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC).Format("since-2006"), func(b *testing.B) {
			fw := benchFramework(b, core.Config{})
			ctx := context.Background()
			since := time.Date(year, 1, 1, 0, 0, 0, 0, time.UTC)
			var physShare float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fw.RunSocial(ctx, core.SocialInput{
					Since:           since,
					DisableLearning: true,
					Threats:         []*tara.ThreatScenario{benchECMThreat()},
				})
				if err != nil {
					b.Fatal(err)
				}
				physShare = res.Tunings[0].VectorShares[tara.VectorPhysical]
			}
			b.ReportMetric(physShare, "physical-share")
		})
	}
}

// A5 — PPIA sensitivity to the price-clustering k.
func BenchmarkAblationPriceClusterK(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5} {
		b.Run(string(rune('k'))+"="+string(rune('0'+k)), func(b *testing.B) {
			fw := benchFramework(b, core.Config{PriceClusters: k})
			var ppia float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fw.RunFinancial(excavatorInput())
				if err != nil {
					b.Fatal(err)
				}
				ppia = res.PPIA.Units()
			}
			b.ReportMetric(ppia, "ppia-eur")
		})
	}
}

// walPostSeq hands out globally unique suffixes for posts written by
// the WAL benchmark (the durable fixture persists across b.N
// calibration runs and -cpu settings).
var walPostSeq atomic.Int64

// BenchmarkWALAppendGroupCommit measures the durable-ingest overhead:
// the same concurrent Add stream against an in-memory store
// (mode=memory) and a write-ahead-logged store (mode=wal, group
// commit + fsync before acknowledgement). The load is the daemon's live
// shape — many concurrent clients whose posts land on the current
// day's time bucket — so one stripe's log takes the whole stream and
// every fsync acknowledges all appends waiting on it; the batch
// dimension is the ingest-API batch size (ns/op is per batch, ÷ batch
// for per-post). The mode ratio at equal batch is the cost of crash
// safety.
func BenchmarkWALAppendGroupCommit(b *testing.B) {
	for _, batch := range []int{1, 16} {
		for _, mode := range []string{"memory", "wal"} {
			b.Run(fmt.Sprintf("batch=%d/mode=%s", batch, mode), func(b *testing.B) {
				b.SetParallelism(16)
				var store *social.Store
				if mode == "wal" {
					var err error
					store, err = social.OpenStoreDir(b.TempDir(), social.DurableOptions{
						Shards:       social.DefaultShards,
						CompactEvery: -1, // measure the log, not the compactor
					})
					if err != nil {
						b.Fatal(err)
					}
				} else {
					store = social.NewStoreShards(social.DefaultShards)
				}
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					posts := make([]*social.Post, batch)
					for pb.Next() {
						for i := range posts {
							posts[i] = walBenchPost(walPostSeq.Add(1))
						}
						if err := store.Add(posts...); err != nil {
							b.Fatal(err)
						}
					}
				})
				// Close's final snapshot is shutdown work, not append
				// cost: keep it off the timer.
				b.StopTimer()
				if err := store.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(batch), "posts/op")
			})
		}
	}
}

// copyTreeHardlink clones a durable data directory, hardlinking
// snapshot files (never modified in place — compaction replaces them
// atomically) but byte-copying WAL segments, which a clone's store
// appends to through the shared inode and would otherwise corrupt the
// source fixture for later iterations.
func copyTreeHardlink(b *testing.B, src, dst string) {
	b.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if filepath.Ext(path) == ".seg" {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(target, data, 0o644)
		}
		return os.Link(path, target)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// durableFixture builds (once) a 64k-post durable data directory whose
// state mirrors a daemon mid-life: the bulk compacted into a snapshot,
// a ~16k-post WAL tail on top.
var (
	durableFixtureOnce sync.Once
	durableFixtureDir  string
	durableFixtureLen  int
	durableFixtureErr  error
)

func durableFixture(b *testing.B) (string, int) {
	b.Helper()
	durableFixtureOnce.Do(func() {
		dir, err := os.MkdirTemp("", "psp-bench-durable-*")
		if err != nil {
			durableFixtureErr = err
			return
		}
		durableFixtureDir = dir
		store, err := social.OpenStoreDir(dir, social.DurableOptions{
			Shards:       social.DefaultShards,
			CompactEvery: -1,
		})
		if err != nil {
			durableFixtureErr = err
			return
		}
		base := paddedStore(b, 56000).SnapshotPosts()
		split := len(base) - 16000
		if err := store.Add(base[:split]...); err == nil {
			err = store.Flush() // snapshot the bulk
		}
		if err != nil {
			durableFixtureErr = err
			return
		}
		// The WAL tail: realistic record sizes (256-post batches).
		for lo := split; lo < len(base); lo += 256 {
			hi := lo + 256
			if hi > len(base) {
				hi = len(base)
			}
			if err := store.Add(base[lo:hi]...); err != nil {
				durableFixtureErr = err
				return
			}
		}
		durableFixtureLen = store.Len()
		// Deliberately no Close: a clean close would compact the tail
		// away, and the fixture models a crash. The handles live until
		// the test binary exits.
	})
	if durableFixtureErr != nil {
		b.Fatal(durableFixtureErr)
	}
	return durableFixtureDir, durableFixtureLen
}

// durableWarmFixture builds (once) a fully compacted 64k-post data
// directory — one snapshot file per stripe, empty WAL tail — the state
// a graceful shutdown leaves behind.
var (
	durableWarmOnce sync.Once
	durableWarmDir  string
	durableWarmLen  int
	durableWarmErr  error
)

func durableWarmFixture(b *testing.B) (string, int) {
	b.Helper()
	durableWarmOnce.Do(func() {
		dir, err := os.MkdirTemp("", "psp-bench-warm-*")
		if err != nil {
			durableWarmErr = err
			return
		}
		durableWarmDir = dir
		// 16 stripes, not DefaultShards: compaction granularity is the
		// stripe, so finer striping is what lets a one-day delta rewrite
		// 1/16th of the corpus (sociald/pspd expose the same knob as
		// -shards).
		store, err := social.OpenStoreDir(dir, social.DurableOptions{
			Shards:       16,
			CompactEvery: -1,
		})
		if err != nil {
			durableWarmErr = err
			return
		}
		posts := paddedStore(b, 64000).SnapshotPosts()
		for lo := 0; lo < len(posts); lo += 1024 {
			hi := lo + 1024
			if hi > len(posts) {
				hi = len(posts)
			}
			if err := store.Add(posts[lo:hi]...); err != nil {
				durableWarmErr = err
				return
			}
		}
		if err := store.Flush(); err != nil {
			durableWarmErr = err
			return
		}
		durableWarmLen = store.Len()
		// No Close: the directory is already fully compacted and the
		// handles live until the test binary exits.
	})
	if durableWarmErr != nil {
		b.Fatal(durableWarmErr)
	}
	return durableWarmDir, durableWarmLen
}

// damagePostings flips the last byte of every snapshot file in a
// cloned data directory — inside the postings section — forcing each
// stripe down the re-tokenizing fallback. copyTreeHardlink links the
// fixture's files, so each one is replaced by a damaged copy rather
// than modified in place, which would corrupt the shared source.
func damagePostings(b *testing.B, dir string) {
	b.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "snap", "*.snap"))
	if err != nil {
		b.Fatal(err)
	}
	if len(snaps) == 0 {
		b.Fatal("no snapshot files to damage")
	}
	for _, p := range snaps {
		data, err := os.ReadFile(p)
		if err != nil {
			b.Fatal(err)
		}
		data[len(data)-1] ^= 0x40
		if err := os.Remove(p); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery64k measures opening a 64k-post data directory until
// the store is fully queryable, in three shapes. warm=indexed installs
// each stripe's snapshot file directly (the fast path); warm=rebuild is
// the same directory with every postings section damaged, so every
// stripe re-tokenizes from its posts — the baseline the stored postings
// are measured against. crash reopens a kill -9 directory: indexed
// snapshot bulk plus a 16k-post WAL tail to replay.
func BenchmarkRecovery64k(b *testing.B) {
	openClone := func(b *testing.B, src string, corpus int, damage bool, wantRebuilt bool) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dst := filepath.Join(b.TempDir(), fmt.Sprintf("clone-%d", i))
			copyTreeHardlink(b, src, dst)
			if damage {
				damagePostings(b, dst)
			}
			// A real recovery starts in a fresh process with an empty heap;
			// collect the bench loop's accumulated garbage off-timer so the
			// timed open does not pay for it.
			runtime.GC()
			b.StartTimer()
			store, err := social.OpenStoreDir(dst, social.DurableOptions{CompactEvery: -1})
			if err != nil {
				b.Fatal(err)
			}
			if store.Len() != corpus {
				b.Fatalf("recovered %d posts, want %d", store.Len(), corpus)
			}
			b.StopTimer()
			if st := store.Stats(); wantRebuilt != (st.RecoveredRebuilt > 0) {
				b.Fatalf("recovery split %d indexed / %d rebuilt does not match the benchmark's shape",
					st.RecoveredIndexed, st.RecoveredRebuilt)
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		b.ReportMetric(float64(corpus), "posts")
	}
	warmSrc, warmCorpus := durableWarmFixture(b)
	b.Run(fmt.Sprintf("warm=indexed/corpus=%d", warmCorpus), func(b *testing.B) {
		openClone(b, warmSrc, warmCorpus, false, false)
	})
	b.Run(fmt.Sprintf("warm=rebuild/corpus=%d", warmCorpus), func(b *testing.B) {
		openClone(b, warmSrc, warmCorpus, true, true)
	})
	crashSrc, crashCorpus := durableFixture(b)
	b.Run(fmt.Sprintf("crash/corpus=%d", crashCorpus), func(b *testing.B) {
		openClone(b, crashSrc, crashCorpus, false, false)
	})
}

// BenchmarkCompactDelta measures one snapshot compaction of a 64k-post
// store after a delta, reporting the bytes and stripes it rewrote.
// stripes=one confines the delta to one UTC day (one stripe — live
// ingest's shape), so incremental compaction writes a small fraction
// of the corpus; stripes=all spreads the same record count across
// every stripe, which is the full-rewrite worst case the one-stripe
// shape is compared with (it should write under 10% of it).
func BenchmarkCompactDelta(b *testing.B) {
	deltaPost := func(n, days int) *social.Post {
		return &social.Post{
			ID:        fmt.Sprintf("delta-%09d", n),
			Author:    "compactbench",
			Text:      "fresh #compactbench chatter about tuning the fleet",
			CreatedAt: time.Date(2024, 6, 1+n%days, 12, 0, 0, n, time.UTC),
			Region:    social.RegionEurope,
			Metrics:   social.Metrics{Views: n % 1000},
		}
	}
	src, corpus := durableWarmFixture(b)
	for _, shape := range []struct {
		name  string
		delta int
		days  int
	}{
		{"delta=1k/stripes=one", 1000, 1},
		{"delta=1k/stripes=all", 1000, 16},
		{"delta=16k/stripes=all", 16000, 16},
	} {
		b.Run(fmt.Sprintf("%s/corpus=%d", shape.name, corpus), func(b *testing.B) {
			var bytes, stripes int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dst := filepath.Join(b.TempDir(), fmt.Sprintf("clone-%d", i))
				copyTreeHardlink(b, src, dst)
				store, err := social.OpenStoreDir(dst, social.DurableOptions{CompactEvery: -1})
				if err != nil {
					b.Fatal(err)
				}
				batch := make([]*social.Post, shape.delta)
				for n := range batch {
					batch[n] = deltaPost(n, shape.days)
				}
				if err := store.Add(batch...); err != nil {
					b.Fatal(err)
				}
				before := store.Stats()
				runtime.GC()
				b.StartTimer()
				if err := store.Flush(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				after := store.Stats()
				bytes += after.CompactionBytes - before.CompactionBytes
				stripes += after.CompactedStripes - before.CompactedStripes
				if err := store.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(stripes)/float64(b.N), "stripes/op")
		})
	}
}

// walBenchPost builds the n-th ingest post of the WAL benchmark: all
// posts share one "live" day — concurrent ingest lands on one hot
// stripe, the daemon's steady-state shape (and the one group commit
// exists for).
func walBenchPost(n int64) *social.Post {
	return &social.Post{
		ID:        fmt.Sprintf("wal-%09d", n),
		Author:    "walbench",
		Text:      "durable #walbench chatter from the fleet",
		CreatedAt: time.Date(2024, 1, 1, 12, 0, 0, int(n%1_000_000_000), time.UTC),
		Region:    social.RegionEurope,
		Metrics:   social.Metrics{Views: int(n % 1000)},
	}
}

// taraFleet builds (once) the assessment-as-a-service fixture: ~50
// tenant analyses of ~100 threats each, the fleet shape a pspd hosting
// one tenant per vehicle variant carries.
var (
	taraFleetOnce     sync.Once
	taraFleetAnalyses []*tara.Analysis
	taraFleetErr      error
	taraDeltaSeq      atomic.Int64
)

func taraFleet(b *testing.B) []*tara.Analysis {
	b.Helper()
	taraFleetOnce.Do(func() {
		for i := 0; i < 50; i++ {
			a, err := tara.GenerateAnalysis(tara.GenSpec{
				Name:           fmt.Sprintf("tenant-%02d", i),
				Assets:         20,
				Damages:        25,
				Threats:        100,
				PathsPerThreat: 2,
				Seed:           9000 + int64(i),
			})
			if err != nil {
				taraFleetErr = err
				return
			}
			taraFleetAnalyses = append(taraFleetAnalyses, a)
		}
	})
	if taraFleetErr != nil {
		b.Fatal(taraFleetErr)
	}
	return taraFleetAnalyses
}

// taraBenchTables returns two distinct feasibility-table overrides; the
// delta benchmark alternates between them so every mutation genuinely
// changes the effective table (an override equal to the installed one
// dirties nothing by design).
func taraBenchTables(b *testing.B) [2]*tara.VectorTable {
	b.Helper()
	mk := func(name string, phys tara.FeasibilityRating) *tara.VectorTable {
		t, err := tara.NewVectorTable(name, map[tara.AttackVector]tara.FeasibilityRating{
			tara.VectorPhysical: phys,
			tara.VectorLocal:    tara.FeasibilityMedium,
			tara.VectorAdjacent: tara.FeasibilityLow,
			tara.VectorNetwork:  tara.FeasibilityVeryLow,
		})
		if err != nil {
			b.Fatal(err)
		}
		return t
	}
	return [2]*tara.VectorTable{
		mk("bench-field-a", tara.FeasibilityHigh),
		mk("bench-field-b", tara.FeasibilityMedium),
	}
}

// BenchmarkAnalysisRunCold is the batch-script baseline the refactor
// replaces: every iteration rates the full 50-tenant × 100-threat fleet
// from scratch (clones run cold), on the framework worker pool.
// rating-calls/op records the work: 5000 threat ratings per pass.
func BenchmarkAnalysisRunCold(b *testing.B) {
	fleet := taraFleet(b)
	fw := benchFramework(b, core.Config{})
	ctx := context.Background()
	var calls uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calls = 0
		for _, a := range fleet {
			cold := a.Clone()
			p, err := cold.Plan()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fw.RatePlan(ctx, p); err != nil {
				b.Fatal(err)
			}
			calls += cold.RatingCalls()
		}
	}
	b.ReportMetric(float64(calls), "rating-calls/op")
}

// BenchmarkAnalysisRerateDelta is the incremental engine on the same
// fleet: one tenant takes a single-threat feasibility override, then
// the whole fleet is re-rated. Dirty tracking re-rates exactly one
// threat — the other 4999 are served as memoized pointer-identical
// results and the 49 clean tenants plan zero work — so ns/op must land
// well over 5× below the cold baseline (the acceptance bar; in
// practice it is orders of magnitude). rating-calls/op pins the work
// at 1.
func BenchmarkAnalysisRerateDelta(b *testing.B) {
	fleet := taraFleet(b)
	tables := taraBenchTables(b)
	fw := benchFramework(b, core.Config{})
	ctx := context.Background()
	// Warm every tenant outside the timer: the service steady state.
	for _, a := range fleet {
		p, err := a.Plan()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fw.RatePlan(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
	var calls uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The sequence survives the harness's calibration runs, so each
		// tenant's consecutive overrides alternate tables — every
		// mutation changes the effective table, none is a no-op.
		idx := taraDeltaSeq.Add(1)
		a := fleet[idx%int64(len(fleet))]
		before := a.RatingCalls()
		changed, err := a.SetThreatTable(a.Threats[0].ID, tables[(idx/int64(len(fleet)))%2])
		if err != nil {
			b.Fatal(err)
		}
		if !changed {
			b.Fatal("override did not change the effective table")
		}
		for _, t := range fleet {
			p, err := t.Plan()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fw.RatePlan(ctx, p); err != nil {
				b.Fatal(err)
			}
		}
		calls = a.RatingCalls() - before
		if calls != 1 {
			b.Fatalf("delta pass made %d rating calls, want 1", calls)
		}
	}
	b.ReportMetric(float64(calls), "rating-calls/op")
}

// BenchmarkResilienceSeams prices the fault-injection and graceful-
// degradation seams on their hot paths, healthy-case (the seams armed
// but no fault firing — what production pays). Two pairs:
//
//   - multi=bare vs multi=resilient: a federated page over two healthy
//     backends, bare all-or-nothing vs per-backend timeout + circuit
//     breaker + partial-results mode armed;
//   - ingest=osfs vs ingest=faultfs: group-committed WAL ingest on the
//     raw filesystem vs through the fault.FS seam with no injectors
//     bound (nil-injector consults on every write and fsync).
//
// The acceptance bar: each instrumented twin within 5% of its bare
// one.
func BenchmarkResilienceSeams(b *testing.B) {
	for _, mode := range []string{"bare", "resilient"} {
		b.Run("multi="+mode, func(b *testing.B) {
			store := paddedStore(b, 8000)
			sources := []social.PlatformSource{
				{Name: "alpha", Searcher: store},
				{Name: "beta", Searcher: store},
			}
			var (
				s   social.Searcher
				err error
			)
			if mode == "resilient" {
				s, err = social.NewMultiOptions(social.MultiOptions{
					BackendTimeout:   5 * time.Second,
					Partial:          true,
					BreakerThreshold: 3,
				}, sources...)
			} else {
				s, err = social.NewMulti(sources...)
			}
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			q := social.Query{AnyTags: []string{"fillerchatter"}, MaxResults: 50, SkipTotal: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page, err := s.Search(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(page.Posts) == 0 || page.Degraded {
					b.Fatalf("healthy federated page: %d posts, degraded=%v", len(page.Posts), page.Degraded)
				}
			}
		})
	}
	for _, mode := range []string{"osfs", "faultfs"} {
		b.Run("ingest="+mode, func(b *testing.B) {
			opts := social.DurableOptions{
				Shards:       social.DefaultShards,
				CompactEvery: -1, // measure the log, not the compactor
			}
			if mode == "faultfs" {
				// The seam armed, nothing bound: every segment write and
				// fsync consults nil injectors.
				opts.FS = &fault.FS{}
			}
			store, err := social.OpenStoreDir(b.TempDir(), opts)
			if err != nil {
				b.Fatal(err)
			}
			const batch = 16
			posts := make([]*social.Post, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range posts {
					posts[j] = walBenchPost(walPostSeq.Add(1))
				}
				if err := store.Add(posts...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(batch), "posts/op")
		})
	}
}

// BenchmarkTracingOverhead prices the distributed-tracing tentpole on
// the two hottest shapes: the mixed ingest+search store workload
// (BenchmarkStoreConcurrentMixed's shape) and the armed federated page
// (BenchmarkResilienceSeams's resilient shape), each bare against
// traced at the default 0.1 head-sampling rate and at full sampling.
// The acceptance bar is trace=sampled within ~5% of trace=off: the
// untraced paths cost one atomic pointer load, and an unsampled span
// is one small allocation plus the sampling coin — no ring write, no
// attr formatting (attrs are set but the span is dropped at End).
func BenchmarkTracingOverhead(b *testing.B) {
	tracerFor := func(mode string) *obs.Tracer {
		switch mode {
		case "sampled":
			return obs.NewTracer(obs.TracerOptions{SampleRate: 0.1})
		case "full":
			return obs.NewTracer(obs.TracerOptions{SampleRate: 1})
		default:
			return nil
		}
	}
	for _, mode := range []string{"off", "sampled", "full"} {
		store := paddedStoreShards(b, 56000, 8)
		store.SetTracer(tracerFor(mode))
		b.Run(fmt.Sprintf("store=mixed/trace=%s", mode), func(b *testing.B) {
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				q := social.Query{AnyTags: []string{"dpfdelete"}, MaxResults: 50}
				for i := 0; pb.Next(); i++ {
					if i%2 == 0 {
						if err := store.Add(mixedWritePost(mixedPostSeq.Add(1))); err != nil {
							b.Error(err)
							return
						}
						continue
					}
					page, err := store.Search(ctx, q)
					if err != nil || page.TotalMatches == 0 {
						b.Errorf("search: %v (total %d)", err, page.TotalMatches)
						return
					}
				}
			})
		})
	}
	for _, mode := range []string{"off", "sampled", "full"} {
		b.Run(fmt.Sprintf("multi=armed/trace=%s", mode), func(b *testing.B) {
			store := paddedStore(b, 8000)
			s, err := social.NewMultiOptions(social.MultiOptions{
				BackendTimeout:   5 * time.Second,
				Partial:          true,
				BreakerThreshold: 3,
				Tracer:           tracerFor(mode),
			},
				social.PlatformSource{Name: "alpha", Searcher: store},
				social.PlatformSource{Name: "beta", Searcher: store},
			)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			q := social.Query{AnyTags: []string{"fillerchatter"}, MaxResults: 50, SkipTotal: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page, err := s.Search(ctx, q)
				if err != nil {
					b.Fatal(err)
				}
				if len(page.Posts) == 0 || page.Degraded {
					b.Fatalf("healthy federated page: %d posts, degraded=%v", len(page.Posts), page.Degraded)
				}
			}
		})
	}
}
