package psp

import (
	"context"
	"io"

	"github.com/psp-framework/psp/internal/finance"
	"github.com/psp-framework/psp/internal/market"
	"github.com/psp-framework/psp/internal/sai"
	"github.com/psp-framework/psp/internal/social"
)

// Social platform types, re-exported from the social substrate.
type (
	// Post is one social-media post.
	Post = social.Post
	// PostMetrics carries a post's engagement counters.
	PostMetrics = social.Metrics
	// Region is a coarse market region tag.
	Region = social.Region
	// SocialQuery selects posts from the platform.
	SocialQuery = social.Query
	// SocialStore is the in-memory post store.
	SocialStore = social.Store
	// SocialServer exposes a store over the HTTP search API.
	SocialServer = social.Server
	// SocialClient talks to a SocialServer and implements Searcher.
	SocialClient = social.Client
	// Searcher is the platform capability the framework needs.
	Searcher = social.Searcher
	// CorpusSpec configures synthetic corpus generation.
	CorpusSpec = social.GeneratorSpec
	// TopicSpec describes one attack topic of a corpus.
	TopicSpec = social.TopicSpec
	// RateLimiter is a token-bucket request limiter.
	RateLimiter = social.RateLimiter
	// SocialCursor is a keyset pagination position: listings resume
	// strictly after a (CreatedAt, ID) key, so pages stay stable under
	// concurrent ingest (the offset tokens of earlier releases are
	// retired).
	SocialCursor = social.Cursor
	// SocialDurableOptions tunes a durable store's write-ahead log and
	// snapshot compaction (OpenSocialStore).
	SocialDurableOptions = social.DurableOptions
	// SocialDurableCursor is a durable store's write-ahead-log position
	// (one replay floor per stripe); PostsSince turns it into the delta
	// ingested after the cursor was taken.
	SocialDurableCursor = social.DurableCursor
)

// Page-size limits of the social search APIs.
const (
	// SocialDefaultPageSize applies when a query sets no MaxResults.
	SocialDefaultPageSize = social.DefaultPageSize
	// SocialMaxPageSize is the page-size ceiling; the workflow requests
	// it to minimize round trips against remote platforms.
	SocialMaxPageSize = social.MaxPageSize
)

// EncodeSocialCursor renders a cursor as an opaque keyset continuation
// token ("k<unix-nanoseconds>.<base64url(post ID)>").
func EncodeSocialCursor(c SocialCursor) string { return social.EncodeCursor(c) }

// ParseSocialCursor parses a keyset continuation token.
func ParseSocialCursor(token string) (SocialCursor, error) { return social.ParseCursor(token) }

// Regions of the reference corpus.
const (
	RegionEurope       = social.RegionEurope
	RegionNorthAmerica = social.RegionNorthAmerica
	RegionAsiaPacific  = social.RegionAsiaPacific
	RegionOther        = social.RegionOther
)

// SocialDefaultShards is the lock-stripe count a store created without
// an explicit shard count uses. Stores stripe their corpus across
// shards keyed by CreatedAt time bucket; search results are identical
// at any stripe count — sharding only sets how many writers and
// readers can make progress concurrently.
const SocialDefaultShards = social.DefaultShards

// NewSocialStore returns an empty post store.
func NewSocialStore() *SocialStore { return social.NewStore() }

// NewSocialStoreShards returns an empty post store striped across n
// lock shards (n ≤ 0 selects SocialDefaultShards); the daemons' -shards
// flag maps onto this.
func NewSocialStoreShards(n int) *SocialStore { return social.NewStoreShards(n) }

// DefaultSocialStore generates the reference corpus (calibrated to the
// paper's case studies) into a fresh store.
func DefaultSocialStore(seed int64) (*SocialStore, error) { return social.DefaultStore(seed) }

// DefaultSocialStoreShards is DefaultSocialStore with an explicit
// lock-shard count.
func DefaultSocialStoreShards(seed int64, shards int) (*SocialStore, error) {
	return social.DefaultStoreShards(seed, shards)
}

// DefaultCorpusSpec returns the reference corpus specification.
func DefaultCorpusSpec(seed int64) CorpusSpec { return social.DefaultCorpusSpec(seed) }

// GenerateCorpus builds the posts of a corpus specification.
func GenerateCorpus(spec CorpusSpec) ([]*Post, error) { return social.Generate(spec) }

// NewSocialServer wraps a store in the HTTP search API; limiter may be
// nil.
func NewSocialServer(store *SocialStore, limiter *RateLimiter) *SocialServer {
	return social.NewServer(store, limiter)
}

// NewSocialClient builds an HTTP client for a remote social API.
func NewSocialClient(baseURL string) *SocialClient { return social.NewClient(baseURL, nil) }

// NewRateLimiter builds a token bucket holding capacity tokens refilled
// at refillPerSecond, for rate-limiting a SocialServer.
func NewRateLimiter(capacity int, refillPerSecond float64) *RateLimiter {
	return social.NewRateLimiter(capacity, refillPerSecond, nil)
}

// PlatformSource is one named backend of a federated search.
type PlatformSource = social.PlatformSource

// Federated-search resilience types (see NewMultiPlatformOptions).
type (
	// MultiOptions tunes a federated searcher's resilience seams:
	// per-backend timeouts, the circuit breaker, partial-results mode,
	// and metrics. The zero value is the bare all-or-nothing federation.
	MultiOptions = social.MultiOptions
	// MultiMetrics is the federated searcher's psp_multi_* recording
	// surface.
	MultiMetrics = social.MultiMetrics
	// BackendStatus is one backend's health annotation on a degraded
	// federated page.
	BackendStatus = social.BackendStatus
)

// ErrSocialDegraded is the sentinel (errors.Is) a durable store's
// ingest returns after a persistent write-ahead-log failure flipped it
// into read-only degraded mode: reads keep serving the committed state,
// Add is refused until restart, and pspd maps the error to
// 503 + Retry-After.
var ErrSocialDegraded = social.ErrDegraded

// NewMultiPlatform federates several platforms (e.g. the Twitter-style
// store plus an Instagram-style one, per the paper's roadmap) behind the
// Searcher interface. Backends are queried concurrently; the merged
// listing pages exactly like the in-process store (default page size,
// offset continuation tokens), so drain it with SearchAllPosts rather
// than expecting one unbounded page from a single Search call.
func NewMultiPlatform(sources ...PlatformSource) (Searcher, error) {
	return social.NewMulti(sources...)
}

// NewMultiPlatformOptions is NewMultiPlatform with resilience options:
// per-backend timeouts, a circuit breaker that fails persistently
// broken backends fast, and opt-in partial-results mode where a page
// with failing backends returns the healthy backends' posts annotated
// as degraded instead of failing outright.
func NewMultiPlatformOptions(opts MultiOptions, sources ...PlatformSource) (Searcher, error) {
	return social.NewMultiOptions(opts, sources...)
}

// NewMultiMetrics registers the psp_multi_* families in reg for use via
// MultiOptions.Metrics.
func NewMultiMetrics(reg *MetricsRegistry) *MultiMetrics {
	return social.NewMultiMetrics(reg)
}

// SearchAllPosts drains every page of a query through any Searcher,
// accumulating all matching posts.
func SearchAllPosts(ctx context.Context, s Searcher, q SocialQuery) ([]*Post, error) {
	return social.SearchAll(ctx, s, q)
}

// PoisonCampaign describes a data-poisoning attempt against the SAI
// pipeline; InjectPoison generates its bot posts for resilience testing.
type PoisonCampaign = social.PoisonCampaign

// InjectPoison generates a poisoning campaign's bot posts.
func InjectPoison(c PoisonCampaign) ([]*Post, error) { return social.InjectPoison(c) }

// OpenSocialStore opens (or initializes) a crash-safe store in a data
// directory: every Add is acknowledged only after its batch is in a
// group-committed fsync'd write-ahead-log record, a background pass
// compacts the WAL into snapshots, and reopening the directory
// recovers the corpus (snapshot + WAL tail, torn tails truncated) with
// search results byte-identical to the acknowledged pre-crash state.
// Close flushes a final snapshot; Flush forces one. The daemons'
// -data-dir flag maps onto this.
func OpenSocialStore(dir string, opts SocialDurableOptions) (*SocialStore, error) {
	return social.OpenStoreDir(dir, opts)
}

// WriteSocialPosts streams posts to w as a JSON Lines snapshot.
func WriteSocialPosts(w io.Writer, posts []*Post) error { return social.WritePosts(w, posts) }

// WriteSocialPostsFile dumps posts to path as a JSON Lines snapshot,
// atomically: temp file, fsync, rename — a crash mid-dump can never
// leave a truncated file for LoadSocialStore to half-parse.
func WriteSocialPostsFile(path string, posts []*Post) error {
	return social.WritePostsFile(path, posts)
}

// WriteSocialStoreFile atomically dumps a store's current contents to
// path as a JSON Lines snapshot (lock-free; writers keep committing).
func WriteSocialStoreFile(path string, s *SocialStore) error {
	return social.WriteStoreFile(path, s)
}

// ReadSocialPosts parses a JSON Lines snapshot.
func ReadSocialPosts(r io.Reader) ([]*Post, error) { return social.ReadPosts(r) }

// LoadSocialStore reads a JSON Lines snapshot into a fresh store.
func LoadSocialStore(r io.Reader) (*SocialStore, error) { return social.LoadStore(r) }

// LoadSocialStoreShards is LoadSocialStore with an explicit lock-shard
// count.
func LoadSocialStoreShards(r io.Reader, shards int) (*SocialStore, error) {
	return social.LoadStoreShards(r, shards)
}

// SAI types, re-exported from the sai engine.
type (
	// SAIIndex is a sorted Social Attraction Index.
	SAIIndex = sai.Index
	// SAIEntry is one index row.
	SAIEntry = sai.Entry
	// SAIWeights is the attraction mix.
	SAIWeights = sai.Weights
	// RatingBands maps vector shares onto feasibility ratings.
	RatingBands = sai.RatingBands
	// Trend is a fitted quarterly topic trend.
	Trend = sai.Trend
	// TrendDirection classifies a trend (rising / stable / falling).
	TrendDirection = sai.TrendDirection
)

// Trend directions.
const (
	TrendFalling = sai.TrendFalling
	TrendStable  = sai.TrendStable
	TrendRising  = sai.TrendRising
)

// DefaultSAIWeights returns the default attraction mix.
func DefaultSAIWeights() SAIWeights { return sai.DefaultWeights() }

// DefaultRatingBands returns the default share → rating bands.
func DefaultRatingBands() RatingBands { return sai.DefaultRatingBands() }

// Finance types, re-exported from the finance engine.
type (
	// Money is an amount in integer cents of a currency.
	Money = finance.Money
	// Currency is a currency code.
	Currency = finance.Currency
	// MarketKind selects the Equation 2 branch.
	MarketKind = finance.MarketKind
	// BEPCurve is a sampled break-even diagram (Fig. 11).
	BEPCurve = finance.BEPCurve
)

// Currencies.
const (
	EUR = finance.EUR
	USD = finance.USD
	GBP = finance.GBP
)

// Market kinds.
const (
	Monopolistic    = finance.Monopolistic
	NonMonopolistic = finance.NonMonopolistic
)

// FromUnits builds a Money from currency units.
func FromUnits(amount float64, c Currency) Money { return finance.FromUnits(amount, c) }

// Market dataset types.
type (
	// MarketDataset bundles sales, reports and listings.
	MarketDataset = market.Dataset
	// MarketListing is one marketplace advertisement.
	MarketListing = market.Listing
	// SalesRecord is one sales figure.
	SalesRecord = market.SalesRecord
)

// DefaultMarketDataset returns the dataset calibrated to the excavator
// case study (Equations 6 and 7).
func DefaultMarketDataset() (*MarketDataset, error) { return market.DefaultDataset() }
