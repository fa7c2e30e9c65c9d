package monitor

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// API serves a Monitor over HTTP:
//
//	POST /v1/posts      — ingest a JSON post or array of posts
//	GET  /v1/assessment — current cached assessment with freshness metadata
//	GET  /v1/healthz    — liveness (always 200) with readiness and store detail
//	GET  /v1/readyz     — readiness: 503 until the initial assessment (and,
//	                      with TARA attached, the initial rating pass) lands
//	GET  /v1/metrics    — Prometheus exposition (with WithObservability)
//
// Ingested posts land in the monitored store; the resulting assessment
// refresh is asynchronous — at once for a batch that owes no work,
// debounced for work — so readers use the generation and updated_at
// metadata to judge freshness.
//
// GET /v1/assessment supports conditional requests: every response
// carries an ETag keyed on the assessment generation, and a request
// whose If-None-Match matches it is answered 304 Not Modified without
// a body — a poller pays for a body only when a generation was
// published since its last read. Every ingested batch that owes no
// work publishes its own generation (fresh corpus and ingest counts
// over the same result), so under continuous ingest nearly every poll
// returns a body; polls between batches are free. A warm-restarted
// daemon resumes the persisted generation, so cached ETags stay valid
// across the restart.
type API struct {
	m *Monitor
	// tara, when set via WithTARA, enables the /v1/tara tenant routes.
	tara *TARAMonitor
	// obsReg/httpMet, when set via WithObservability, enable /v1/metrics
	// and per-route instrumentation; pprof mounts /debug/pprof.
	obsReg  *obs.Registry
	httpMet *obs.HTTPMetrics
	// tracer, when set via WithTracing, enables GET /v1/trace and makes
	// the middleware open one server span per request.
	tracer *obs.Tracer
	pprof  bool
}

// NewAPI wraps a monitor.
func NewAPI(m *Monitor) *API { return &API{m: m} }

// WithObservability attaches a metrics registry to the API: every route
// is wrapped with request-ID/status/latency middleware (recorded under
// psp_http_*), handlers log through the request-scoped logger, and
// GET /v1/metrics serves the registry's Prometheus exposition.
func (a *API) WithObservability(reg *obs.Registry, logger *slog.Logger) *API {
	a.obsReg = reg
	a.httpMet = obs.NewHTTPMetrics(reg, logger)
	return a
}

// WithTracing attaches a span tracer: the request middleware (from
// WithObservability, which must be attached too for per-request server
// spans) continues inbound traceparent headers or starts fresh traces,
// and GET /v1/trace serves the recorded span ring (see obs.Tracer).
func (a *API) WithTracing(t *obs.Tracer) *API {
	a.tracer = t
	a.httpMet.WithTracer(t)
	return a
}

// WithPprof mounts net/http/pprof under /debug/pprof/ — opt-in, for
// profiling a live daemon.
func (a *API) WithPprof() *API {
	a.pprof = true
	return a
}

// Handler returns the HTTP handler implementing the API.
func (a *API) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/posts", a.route("/v1/posts", http.HandlerFunc(a.handleIngest)))
	mux.Handle("/v1/assessment", a.route("/v1/assessment", http.HandlerFunc(a.handleAssessment)))
	mux.Handle("/v1/healthz", a.route("/v1/healthz", http.HandlerFunc(a.handleHealth)))
	mux.Handle("/v1/readyz", a.route("/v1/readyz", http.HandlerFunc(a.handleReady)))
	if a.tara != nil {
		mux.Handle("/v1/tara", a.route("/v1/tara", http.HandlerFunc(a.handleTARAList)))
		mux.Handle("/v1/tara/", a.route("/v1/tara/{tenant}", http.HandlerFunc(a.handleTARATenant)))
	}
	if a.obsReg != nil {
		mux.Handle("/v1/metrics", a.route("/v1/metrics", a.obsReg.Handler()))
	}
	if a.tracer != nil {
		mux.Handle("/v1/trace", a.route("/v1/trace", a.tracer.Handler()))
	}
	if a.pprof {
		mux.Handle("/debug/pprof/", obs.PprofHandler())
	}
	return mux
}

// route wraps a handler with the HTTP middleware when observability is
// attached, and passes it through untouched otherwise.
func (a *API) route(name string, h http.Handler) http.Handler {
	if a.httpMet == nil {
		return h
	}
	return a.httpMet.Wrap(name, h)
}

type errorResponse struct {
	Error string `json:"error"`
}

// bodyErrorStatus maps a request-body read failure to its status: 413
// when MaxBytesReader tripped the size cap, 400 otherwise.
func bodyErrorStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

type ingestResponse struct {
	Added      int `json:"added"`
	CorpusSize int `json:"corpus_size"`
}

func (a *API) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 32<<20))
	if err != nil {
		writeJSON(w, bodyErrorStatus(err), errorResponse{Error: fmt.Sprintf("read body: %v", err)})
		return
	}
	var posts []*social.Post
	if err := json.Unmarshal(body, &posts); err != nil {
		var one social.Post
		if err := json.Unmarshal(body, &one); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "body must be a post object or an array of posts"})
			return
		}
		posts = []*social.Post{&one}
	}
	store := a.m.Store()
	added, addErr := store.AddCountContext(r.Context(), posts...)
	if addErr != nil {
		if errors.Is(addErr, social.ErrDegraded) {
			// Read-only degraded mode (persistent WAL failure): the
			// refusal is not the client's fault and not permanent —
			// a restarted or repaired daemon accepts again.
			obs.LoggerFrom(r.Context()).Warn("ingest refused, store degraded", "error", addErr)
			w.Header().Set("Retry-After", "30")
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: addErr.Error()})
			return
		}
		// Batch semantics: posts ahead of the offender are stored (and
		// already published to the changefeed), so report both.
		obs.LoggerFrom(r.Context()).Warn("ingest rejected",
			"added", added, "submitted", len(posts), "error", addErr)
		writeJSON(w, http.StatusBadRequest, struct {
			ingestResponse
			errorResponse
		}{ingestResponse{Added: added, CorpusSize: store.Len()}, errorResponse{Error: addErr.Error()}})
		return
	}
	obs.LoggerFrom(r.Context()).Debug("posts ingested", "added", added, "corpus", store.Len())
	writeJSON(w, http.StatusAccepted, ingestResponse{Added: added, CorpusSize: store.Len()})
}

// assessmentResponse is the wire form of GET /v1/assessment.
type assessmentResponse struct {
	Generation          uint64              `json:"generation"`
	UpdatedAt           time.Time           `json:"updated_at"`
	FullRun             bool                `json:"full_run"`
	Recomputed          bool                `json:"recomputed"`
	Restored            bool                `json:"restored,omitempty"`
	CorpusSize          int                 `json:"corpus_size"`
	Ingested            int                 `json:"ingested"`
	Dirty               core.DirtySet       `json:"dirty"`
	Since               *time.Time          `json:"since,omitempty"`
	Until               *time.Time          `json:"until,omitempty"`
	Index               []indexEntry        `json:"index"`
	Learned             map[string][]string `json:"learned,omitempty"`
	InauthenticFiltered int                 `json:"inauthentic_filtered"`
	Tunings             []tuningSummary     `json:"tunings"`
}

type indexEntry struct {
	Topic       string   `json:"topic"`
	Tags        []string `json:"tags"`
	Posts       int      `json:"posts"`
	Score       float64  `json:"score"`
	Probability float64  `json:"probability"`
	Insider     bool     `json:"insider"`
}

type tuningSummary struct {
	ThreatID   string                                       `json:"threat_id"`
	ThreatName string                                       `json:"threat_name"`
	Insider    bool                                         `json:"insider"`
	Posts      int                                          `json:"posts"`
	Table      string                                       `json:"table"`
	Ratings    map[tara.AttackVector]tara.FeasibilityRating `json:"ratings"`
	Factors    map[tara.AttackVector]float64                `json:"factors,omitempty"`
}

// renderAssessment flattens an assessment into its wire form.
func renderAssessment(cur *Assessment) assessmentResponse {
	res := cur.Result
	out := assessmentResponse{
		Generation:          cur.Generation,
		UpdatedAt:           cur.UpdatedAt,
		FullRun:             cur.FullRun,
		Recomputed:          cur.Recomputed,
		Restored:            cur.Restored,
		CorpusSize:          cur.CorpusSize,
		Ingested:            cur.Ingested,
		Dirty:               cur.Dirty,
		Learned:             res.Learned,
		InauthenticFiltered: res.InauthenticFiltered,
		Index:               make([]indexEntry, 0, len(res.Index.Entries)),
		Tunings:             make([]tuningSummary, 0, len(res.Tunings)),
	}
	if !res.Since.IsZero() {
		out.Since = &res.Since
	}
	if !res.Until.IsZero() {
		out.Until = &res.Until
	}
	for _, e := range res.Index.Entries {
		out.Index = append(out.Index, indexEntry{
			Topic:       e.Topic,
			Tags:        e.Tags,
			Posts:       e.Posts,
			Score:       e.Score,
			Probability: e.Probability,
			Insider:     e.Insider,
		})
	}
	for _, tuning := range res.Tunings {
		out.Tunings = append(out.Tunings, tuningSummary{
			ThreatID:   tuning.Threat.ID,
			ThreatName: tuning.Threat.Name,
			Insider:    tuning.Insider,
			Posts:      tuning.Posts,
			Table:      tuning.Table.Name,
			Ratings:    tuning.Table.Ratings(),
			Factors:    tuning.Factors,
		})
	}
	return out
}

func (a *API) handleAssessment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET only"})
		return
	}
	cur := a.m.Assessment()
	if cur == nil {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "assessment not ready; initial run in progress"})
		return
	}
	// The tag pairs the generation with its publication instant:
	// generations alone restart from 1 after a cold restart (no
	// persisted state), and a stale cached copy must not survive that.
	etag := fmt.Sprintf(`"g%d.%d"`, cur.Generation, cur.UpdatedAt.UnixNano())
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, renderAssessment(cur))
}

// etagMatches implements the If-None-Match comparison for a single
// current tag: a comma-separated candidate list, "*", and weak
// validators (the weak comparison is allowed for GET).
func etagMatches(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" {
		return false
	}
	for _, cand := range strings.Split(ifNoneMatch, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

type healthResponse struct {
	Status     string `json:"status"`
	Posts      int    `json:"posts"`
	Generation uint64 `json:"generation"`
	LastError  string `json:"last_error,omitempty"`
	// StoreError reports a failing background snapshot compaction on a
	// durable store (the WAL keeps growing until it clears).
	StoreError string `json:"store_error,omitempty"`
	// Degraded reports the store's read-only degraded mode (persistent
	// WAL failure: ingest refused with 503, reads keep serving);
	// DegradedCause is the triggering failure.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedCause string `json:"degraded_cause,omitempty"`
	// Ready mirrors /v1/readyz (healthz itself stays 200 — it is the
	// liveness probe); Reasons lists what readiness is waiting on.
	Ready   bool     `json:"ready"`
	Reasons []string `json:"reasons,omitempty"`
	// Store detail: shard count, durability, WAL floors per stripe and
	// the changefeed's unsent backlog across subscribers.
	Shards                int                  `json:"shards"`
	Durable               bool                 `json:"durable"`
	WALFloors             social.DurableCursor `json:"wal_floors,omitempty"`
	ChangefeedSubscribers int                  `json:"changefeed_subscribers"`
	ChangefeedBacklog     int                  `json:"changefeed_backlog"`
}

func (a *API) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := a.m.Store().Stats()
	h := healthResponse{
		Status:                "ok",
		Posts:                 st.Posts,
		Shards:                st.Shards,
		Durable:               st.Durable,
		WALFloors:             st.WALFloors,
		ChangefeedSubscribers: st.ChangefeedSubscribers,
		ChangefeedBacklog:     st.ChangefeedBacklog,
	}
	if cur := a.m.Assessment(); cur != nil {
		h.Generation = cur.Generation
	}
	if err := a.m.LastError(); err != nil {
		h.LastError = err.Error()
	}
	if err := a.m.Store().CompactionError(); err != nil {
		h.StoreError = err.Error()
	}
	if st.Degraded {
		h.Degraded = true
		h.DegradedCause = st.DegradedCause
	}
	h.Ready, h.Reasons = a.readiness()
	writeJSON(w, http.StatusOK, h)
}

// readiness evaluates the readiness gate: the initial assessment must
// have published (on a warm restart, restoring persisted state counts)
// and, when a TARA fleet is attached, its initial rating pass must have
// completed.
func (a *API) readiness() (bool, []string) {
	var reasons []string
	if a.m.Assessment() == nil {
		reasons = append(reasons, "initial assessment pending")
	}
	if a.tara != nil && !a.tara.Ready() {
		reasons = append(reasons, "initial TARA rating pass pending")
	}
	if err := a.m.Store().Degraded(); err != nil {
		reasons = append(reasons, fmt.Sprintf("store degraded (read-only): %v", err))
	}
	return len(reasons) == 0, reasons
}

func (a *API) handleReady(w http.ResponseWriter, r *http.Request) {
	ready, reasons := a.readiness()
	if !ready {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status  string   `json:"status"`
			Reasons []string `json:"reasons"`
		}{"unready", reasons})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{"ready"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
