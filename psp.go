package psp

import (
	"context"
	"net/http"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/market"
	"github.com/psp-framework/psp/internal/monitor"
	"github.com/psp-framework/psp/internal/social"
)

// Framework is the PSP framework instance; see core.Framework.
type Framework = core.Framework

// Config wires the framework's dependencies and tunables, including
// Concurrency, the worker-pool width of the social workflow's query
// fan-out (0 defaults to runtime.GOMAXPROCS(0); 1 is sequential).
type Config = core.Config

// Workflow inputs and outputs (Fig. 7 and Fig. 10 of the paper).
type (
	// SocialInput parameterizes the social workflow.
	SocialInput = core.SocialInput
	// SocialResult is the social workflow output.
	SocialResult = core.SocialResult
	// ThreatTuning is the per-threat regenerated weight table.
	ThreatTuning = core.ThreatTuning
	// FinancialInput parameterizes the financial workflow.
	FinancialInput = core.FinancialInput
	// FinancialResult is the financial workflow output.
	FinancialResult = core.FinancialResult
	// AdversaryProfile carries the Equation 4 fixed-cost terms.
	AdversaryProfile = core.AdversaryProfile
	// KeywordDB is the attack keyword database.
	KeywordDB = core.KeywordDB
	// KeywordGroup is one attack topic with its hashtags.
	KeywordGroup = core.KeywordGroup
)

// New builds a Framework from an explicit configuration.
func New(cfg Config) (*Framework, error) { return core.New(cfg) }

// NewDefault builds a Framework over the built-in reference corpus
// (seeded deterministically) and the calibrated market dataset — the
// configuration that reproduces the paper's case studies.
func NewDefault(seed int64) (*Framework, error) {
	store, err := social.DefaultStore(seed)
	if err != nil {
		return nil, err
	}
	ds, err := market.DefaultDataset()
	if err != nil {
		return nil, err
	}
	return core.New(Config{Searcher: store, Market: ds})
}

// NewKeywordDB builds a keyword database from topic groups.
func NewKeywordDB(groups []KeywordGroup) (*KeywordDB, error) {
	return core.NewKeywordDB(groups)
}

// DefaultKeywordDB returns the built-in keyword database seeded with the
// paper's first-iteration hashtags.
func DefaultKeywordDB() (*KeywordDB, error) { return core.DefaultKeywordDB() }

// DefaultAdversaryProfile returns the default Equation 4 adversary
// profile (one work-year at 60 EUR/h plus lab depreciation).
func DefaultAdversaryProfile() *AdversaryProfile { return core.DefaultAdversaryProfile() }

// Continuous monitoring (ISO/SAE 21434 Clause 8): the changefeed →
// scheduler → cached-assessment subsystem behind the pspd daemon.
type (
	// ResultCache backs incremental re-assessment: cached platform
	// listings, patched or dropped exactly as posts arrive, plus
	// per-slice memos of the workflow's derivations. Pass to
	// Framework.RunSocialDelta.
	ResultCache = core.ResultCache
	// SocialQueryCache caches drained platform listings behind the
	// Searcher interface.
	SocialQueryCache = core.QueryCache
	// DirtySet summarizes which topics and threats an ingest delta can
	// affect.
	DirtySet = core.DirtySet
	// Monitor schedules incremental re-assessment over a store
	// changefeed.
	Monitor = monitor.Monitor
	// MonitorConfig wires a Monitor.
	MonitorConfig = monitor.Config
	// Assessment is one published risk snapshot with freshness metadata.
	Assessment = monitor.Assessment
	// MonitorAPI serves a Monitor over HTTP (ingest + assessment +
	// health).
	MonitorAPI = monitor.API
	// MonitorState is a monitor's persisted warm-restart image: the
	// assessment's metadata, the result cache's fills and slice memos,
	// and the durable store cursor the image was taken at. A restore
	// re-derives the assessment's result from the restored cache.
	MonitorState = monitor.State
	// MonitorStateStore persists and restores MonitorState
	// (MonitorConfig.State).
	MonitorStateStore = monitor.StateStore
	// TARAMonitor continuously re-rates the dirty tenants of a TARA
	// registry, optionally bridged to a social Monitor's threat tunings.
	TARAMonitor = monitor.TARAMonitor
	// TARAMonitorConfig wires a TARAMonitor.
	TARAMonitorConfig = monitor.TARAConfig
)

// NewResultCache builds a result cache over a platform backend.
func NewResultCache(backend Searcher) *ResultCache { return core.NewResultCache(backend) }

// NewSocialQueryCache wraps a platform behind a listing cache.
func NewSocialQueryCache(backend Searcher) *SocialQueryCache { return core.NewQueryCache(backend) }

// NewMonitor validates the configuration and builds a Monitor; drive it
// with Run and read it with Assessment/WaitFor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) { return monitor.New(cfg) }

// NewMonitorAPI wraps a monitor in its HTTP API. Chain WithTARA to add
// the /v1/tara multi-tenant routes.
func NewMonitorAPI(m *Monitor) *MonitorAPI { return monitor.NewAPI(m) }

// NewTARAMonitor validates the configuration and builds a TARAMonitor;
// drive it with Run and read tenants through the registry.
func NewTARAMonitor(cfg TARAMonitorConfig) (*TARAMonitor, error) { return monitor.NewTARAMonitor(cfg) }

// NewMonitorFileState persists monitor state in one binary file of
// CRC-framed sections, replaced atomically on every save. Give it to
// MonitorConfig.State (over a store opened with OpenSocialStore) and a
// restarted monitor re-derives its previous assessment from the saved
// result cache without a platform query and serves it at once, then
// catches up with an incremental delta run as warm as the process that
// saved the state, instead of a cold full workflow. A damaged file, or
// one in the older JSON layout, restores nothing: the monitor runs cold
// and replaces it.
func NewMonitorFileState(path string) MonitorStateStore { return monitor.NewFileStateStore(path) }

// ListenAndServeGraceful runs an HTTP server until ctx is cancelled,
// then drains in-flight requests (bounded by drainTimeout; ≤ 0 means
// 5 s) — the SIGINT/SIGTERM shutdown path shared by pspd and sociald.
func ListenAndServeGraceful(ctx context.Context, srv *http.Server, drainTimeout time.Duration) error {
	return monitor.ListenAndServe(ctx, srv, drainTimeout)
}
