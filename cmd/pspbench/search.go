package main

import (
	"context"
	"math/rand"
	"slices"
	"time"

	psp "github.com/psp-framework/psp"
)

// Load shape of search-federated: listings are due open-loop; each
// listing pages back-to-back, as a client draining it does, for up to
// maxPages keyset pages — at most listingRate·maxPages = 100 pages/s.
const (
	listingRate = 25 // listings/s
	pageSize    = 50
	maxPages    = 4
	poolSize    = 256 // distinct queries the stream draws from
)

// federated drives search-federated: listings paged through the armed
// Multi, each checked against the same query drained on a union
// reference store.
type federated struct {
	f       *federation
	e       *env
	tr      *psp.Tracer
	corpora [][]*psp.Post
}

func bootFederated(ctx context.Context, e *env, tr *psp.Tracer) (system, error) {
	f, corpora, err := bootFederation(ctx, e.seed, e.sz.backendPosts, tr)
	if err != nil {
		return nil, err
	}
	return &federated{f: f, e: e, tr: tr, corpora: corpora}, nil
}

func (s *federated) close() error { return s.f.close() }

func (s *federated) drive(ctx context.Context, warmup, measure time.Duration) (*pass, error) {
	// Untimed: the reference listings every pool query must reproduce.
	queries := queryPool(s.e.seed, poolSize)
	expected, err := referenceListings(ctx, s.corpora, queries)
	if err != nil {
		return nil, err
	}
	s.corpora = nil

	w := newWindow(warmup, measure)
	ps := newPass(w)
	rt := sampleRuntime(w)
	before := snapshotAt(w.from, func() uint64 { return s.f.multiMt.DegradedPages.Value() })
	rng := rand.New(rand.NewSource(s.e.seed))
	var log streamLog
	log.late = schedule(ctx, w, time.Second/listingRate, func(int) func(time.Time) {
		qi := rng.Intn(len(queries))
		return func(due time.Time) {
			measured := w.measured(due)
			q := queries[qi]
			var ids []string
			// The first page is due with the listing; each continuation is
			// due the moment the page before it arrives. Only the first page
			// carries the match total, as a paging UI shows it.
			pageDue := due
			for pages := 0; pages < maxPages; pages++ {
				if measured {
					log.attempted++
				}
				q.SkipTotal = pages > 0
				pctx, span := s.tr.Start(ctx, "bench.page")
				page, err := s.f.multi.Search(pctx, q)
				span.End()
				at := time.Now()
				if err != nil || page.Degraded {
					log.fail("federated page: degraded=%v: %v", page != nil && page.Degraded, err)
					return
				}
				ps.response.add(pageDue, at.Sub(pageDue))
				for _, p := range page.Posts {
					ids = append(ids, p.ID)
				}
				if page.NextToken == "" {
					break
				}
				q.PageToken = page.NextToken
				pageDue = at
			}
			ps.visible.add(due, time.Since(due))
			if measured && !slices.Equal(ids, expected[qi]) {
				log.fail("listing %+v: %d posts differ from the reference's %d", queries[qi], len(ids), len(expected[qi]))
			}
		}
	})
	ps.rt = rt.finish()
	ps.merge(&log)

	pages, lists := ps.response.all(), ps.visible.all()
	ps.diag = []metric{
		{"search_page_p50_ms", ms(quantile(pages, 0.5)), "ms"},
		{"search_page_p99_ms", ms(quantile(pages, 0.99)), "ms"},
		{"listing_p50_ms", ms(quantile(lists, 0.5)), "ms"},
		{"gen_late_p50_ms", ms(quantile(log.late, 0.5)), "ms"},
		{"gen_late_max_ms", ms(quantile(log.late, 1)), "ms"},
		{"search_pages", float64(len(pages)), "count"},
		{"search_listings", float64(len(lists)), "count"},
	}
	ps.layer = map[string]float64{"multi.backend.degraded_pages": float64(s.f.multiMt.DegradedPages.Value() - before())}
	ps.heapMB = heapLiveMB()
	return ps, nil
}

// referenceListings drains every query, up to maxPages pages of
// pageSize, on a union store holding all backends' posts under their
// federated IDs.
func referenceListings(ctx context.Context, corpora [][]*psp.Post, queries []psp.SocialQuery) ([][]string, error) {
	ref, err := unionStore(corpora)
	if err != nil {
		return nil, err
	}
	out := make([][]string, len(queries))
	for i, q := range queries {
		for pages := 0; pages < maxPages; pages++ {
			page, err := ref.Search(ctx, q)
			if err != nil {
				return nil, err
			}
			for _, p := range page.Posts {
				out[i] = append(out[i], p.ID)
			}
			if page.NextToken == "" {
				break
			}
			q.PageToken = page.NextToken
		}
	}
	return out, nil
}
