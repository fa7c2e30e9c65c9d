package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	psp "github.com/psp-framework/psp"
	"github.com/psp-framework/psp/internal/obs"
)

// Load shape of the ingest workloads.
const (
	batchPosts    = 8
	coldBatchRate = 200 // batches/s, ingest-cold
	hotBatchRate  = 20  // batches/s, ingest-hot
	taraOpRate    = 5   // op batches/s, ingest-hot
	drainTimeout  = 10 * time.Second
)

// taraTenants receive the ingest-hot op stream in turn: the tenants
// carrying the socially monitored threats, so ops and the social bridge
// contend for the same tenants.
var taraTenants = []string{"ECM", "BCM"}

// ingest drives ingest-cold (hot=false) and ingest-hot against a booted
// pipeline over its HTTP API.
type ingest struct {
	p   *pipeline
	e   *env
	tr  *psp.Tracer
	hot bool
}

func bootIngest(hot bool) bootFunc {
	return func(ctx context.Context, e *env, tr *psp.Tracer) (system, error) {
		dir, err := e.tempDir("pipeline")
		if err != nil {
			return nil, err
		}
		p, err := bootPipeline(ctx, dir, tr)
		if err != nil {
			return nil, err
		}
		return &ingest{p: p, e: e, tr: tr, hot: hot}, nil
	}
}

func (s *ingest) close() error { return s.p.close() }

// batchAck is one acknowledged ingest batch; cum is the number of posts
// acknowledged up to and including it.
type batchAck struct {
	due, at time.Time
	cum     int
}

// opAck is one acknowledged TARA op batch and the tenant version it
// produced.
type opAck struct {
	due, at time.Time
	tenant  string
	version uint64
}

func (s *ingest) drive(ctx context.Context, warmup, measure time.Duration) (*pass, error) {
	w := newWindow(warmup, measure)
	ps := newPass(w)
	rt := sampleRuntime(w)
	before := snapshotAt(w.from, func() storeCounters { return readCounters(s.p.met) })
	wctx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	pubs := watchMonitor(wctx, s.p.mon.m)
	tenants := map[string]*tenantLog{}
	if s.hot {
		for _, name := range taraTenants {
			tenants[name] = watchTenant(wctx, s.p.fleet, name)
		}
	}

	var (
		wg          sync.WaitGroup
		inLog       streamLog
		opLog       streamLog
		acks        []batchAck
		ops         []opAck
		ids         []string
		ingestBytes int64
		ackLat      = &samples{w: w}
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		acks, ids, ingestBytes = s.ingestStream(ctx, w, ackLat, &inLog)
	}()
	if s.hot {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops = s.opStream(ctx, w, &opLog)
		}()
	}
	wg.Wait()
	after := readCounters(s.p.met)
	start := before()
	ps.rt = rt.finish()

	// Drain: the assessment must come to cover every acknowledged post,
	// and each tenant must publish its last acknowledged version.
	total := 0
	if len(acks) > 0 {
		total = acks[len(acks)-1].cum
	}
	final := waitIngested(ctx, s.p.mon.m, total)
	lastVersion := map[string]uint64{}
	for _, op := range ops {
		lastVersion[op.tenant] = op.version
	}
	for name, tl := range tenants {
		tl.waitVersion(ctx, lastVersion[name])
	}
	stopWatch()
	pubs.wait()
	for _, tl := range tenants {
		tl.wait()
	}

	ps.merge(&inLog)
	ps.merge(&opLog)
	if final == nil || final.Ingested != total {
		got := -1
		if final != nil {
			got = final.Ingested
		}
		ps.problem("final assessment counts %d ingested posts, %d were acknowledged", got, total)
	}
	missing := 0
	for _, id := range ids {
		if s.p.store.Post(id) == nil {
			missing++
		}
	}
	if missing > 0 {
		ps.problem("%d of %d acknowledged posts are not retrievable by ID", missing, len(ids))
	}
	for _, a := range acks {
		if at, ok := pubs.covering(a.cum); ok {
			ps.visible.add(a.due, at.Sub(a.at))
		} else if w.measured(a.due) {
			ps.problem("batch acknowledged at %s never covered by a published assessment", a.at.Format(time.StampMicro))
		}
	}
	taraFresh, taraRated := &samples{w: w}, &samples{w: w}
	conflicts := opLog.conflicts
	for _, op := range ops {
		if at, ok := checkOp(ps, tenants[op.tenant], op); ok {
			taraFresh.add(op.due, at.Sub(op.at))
			taraRated.add(op.due, at.Sub(op.due))
		}
	}
	// ingest-hot's response is the time from a TARA op's due time to the
	// published rating of its version. Its ingest acknowledgements wait
	// on the saturated monitor's CPU and garbage collection: on a shared
	// 2-vCPU VM their median spread 18–40% across runs of the same code,
	// so they are a diagnostic there.
	ps.response = ackLat
	if s.hot {
		ps.response = taraRated
	}

	resp, fresh, late := ackLat.all(), ps.visible.all(), append(inLog.late, opLog.late...)
	ps.diag = []metric{
		{"ingest_ack_p50_ms", ms(quantile(resp, 0.5)), "ms"},
		{"ingest_ack_p99_ms", ms(quantile(resp, 0.99)), "ms"},
		{"fresh_p50_ms", ms(quantile(fresh, 0.5)), "ms"},
		{"fresh_p99_ms", ms(quantile(fresh, 0.99)), "ms"},
		{"write_amp", ratio(float64(after.compactBytes-start.compactBytes), float64(ingestBytes)), "ratio"},
		{"gen_late_p50_ms", ms(quantile(late, 0.5)), "ms"},
		{"gen_late_max_ms", ms(quantile(late, 1)), "ms"},
		{"ingest_batches", float64(len(resp)), "count"},
	}
	if s.hot {
		tf := taraFresh.all()
		ps.diag = append(ps.diag,
			metric{"tara_fresh_p50_ms", ms(quantile(tf, 0.5)), "ms"},
			metric{"tara_fresh_p90_ms", ms(quantile(tf, 0.9)), "ms"},
			metric{"tara_rated_p50_ms", ms(quantile(taraRated.all(), 0.5)), "ms"},
			metric{"tara_ops", float64(len(tf)), "count"},
			metric{"tara_conflicts", float64(conflicts), "count"},
		)
	}
	ps.layer = after.layer(start, s.p.met)
	ps.layer["tara.ops"] = float64(len(taraFresh.all()))

	// Drop the bookkeeping before reading the live heap, so it measures
	// the system rather than the benchmark's records.
	acks, ops, ids, pubs, tenants = nil, nil, nil, nil, nil
	ps.heapMB = heapLiveMB()
	return ps, nil
}

// ingestStream posts batches of live posts to /v1/posts at the
// workload's rate. It records each measured batch's acknowledgement
// latency in resp and returns every acknowledged batch, the
// acknowledged post IDs, and the JSON bytes of the measured
// acknowledged batches.
func (s *ingest) ingestStream(ctx context.Context, w window, resp *samples, log *streamLog) (acks []batchAck, ids []string, body int64) {
	rate, prefix, topics := coldBatchRate, "cold", []psp.TopicSpec(nil)
	if s.hot {
		rate, prefix, topics = hotBatchRate, "hot", hotTopics
	}
	gen := newPostGen(s.e.seed, prefix, topics)
	client := streamClient()
	defer client.CloseIdleConnections()
	cum := 0
	log.late = schedule(ctx, w, time.Second/time.Duration(rate), func(int) func(time.Time) {
		posts := gen.batch(batchPosts)
		payload, encErr := json.Marshal(posts)
		return func(due time.Time) {
			measured := log.begin(w, due)
			if encErr != nil {
				log.fail("encode batch: %v", encErr)
				return
			}
			var out struct {
				Added int `json:"added"`
			}
			status, err := call(ctx, client, s.tr, "bench.ingest", s.p.url+"/v1/posts", payload, &out)
			at := time.Now()
			if err != nil || status != http.StatusAccepted || out.Added != len(posts) {
				log.fail("ingest: status %d, added %d of %d: %v", status, out.Added, len(posts), err)
				return
			}
			resp.add(due, at.Sub(due))
			cum += len(posts)
			acks = append(acks, batchAck{due: due, at: at, cum: cum})
			for _, p := range posts {
				ids = append(ids, p.ID)
			}
			if measured {
				body += int64(len(payload))
			}
		}
	})
	return acks, ids, body
}

// opStream posts set_threat_table op batches to the ECM and BCM tenants
// in turn, each guarded by expect_version. A 409 means the social bridge
// moved the tenant first; the stream retries once at the version the
// conflict reports, as an optimistic-concurrency client would, and
// counts the conflict.
func (s *ingest) opStream(ctx context.Context, w window, log *streamLog) (acks []opAck) {
	client := streamClient()
	defer client.CloseIdleConnections()
	reg := s.p.fleet.Registry()
	versions := map[string]uint64{}
	sent := map[string]int{}
	for _, name := range taraTenants {
		ten, ok := reg.Get(name)
		if !ok {
			log.fail("tara: no %s tenant", name)
			return nil
		}
		versions[name] = ten.Version()
	}
	log.late = schedule(ctx, w, time.Second/taraOpRate, func(i int) func(time.Time) {
		tenant := taraTenants[i%len(taraTenants)]
		return func(due time.Time) {
			measured := log.begin(w, due)
			var out struct {
				Version uint64 `json:"version"`
				Applied int    `json:"applied"`
			}
			send := func() (int, error) {
				payload, err := json.Marshal(taraOp(versions[tenant], sent[tenant]))
				if err != nil {
					return 0, err
				}
				return call(ctx, client, s.tr, "bench.op", s.p.url+"/v1/tara/"+tenant, payload, &out)
			}
			status, err := send()
			if err == nil && status == http.StatusConflict {
				if measured {
					log.conflicts++
				}
				versions[tenant] = out.Version
				status, err = send()
			}
			at := time.Now()
			if err != nil || status != http.StatusOK || out.Applied != 1 {
				log.fail("tara op on %s: status %d, applied %d: %v", tenant, status, out.Applied, err)
				return
			}
			versions[tenant] = out.Version
			sent[tenant]++
			acks = append(acks, opAck{due: due, at: at, tenant: tenant, version: out.Version})
		}
	})
	return acks
}

// streamClient is one generator stream's HTTP client: requests go out
// one at a time over a single kept-alive connection.
func streamClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}

// call POSTs a JSON body under a benchmark span named name — the root of
// the request's trace when tracing — whose traceparent header makes the
// server's spans its children. It decodes the JSON response into out.
func call(ctx context.Context, c *http.Client, tr *psp.Tracer, name, url string, body []byte, out any) (int, error) {
	ctx, span := tr.Start(ctx, name)
	defer span.End()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := obs.TraceparentFrom(ctx); tp != "" {
		req.Header.Set(psp.TraceparentHeader, tp)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(out)
	// Drain the rest so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return resp.StatusCode, fmt.Errorf("decode response: %w", err)
	}
	return resp.StatusCode, nil
}

// checkOp verifies one acknowledged op and returns when its rating was
// observed: some published assessment of its tenant must rate the
// acknowledged version, and that rating pass must have spent exactly one
// engine rating call per dirty threat (the incremental-rating contract).
// When the watcher saw the previous generation the call delta is checked
// exactly; after a missed generation only its lower bound is.
func checkOp(ps *pass, tl *tenantLog, op opAck) (time.Time, bool) {
	i, ok := tl.covering(op.version)
	if !ok {
		ps.problem("%s version %d was acknowledged but never rated", op.tenant, op.version)
		return time.Time{}, false
	}
	cur := tl.recs[i]
	if !ps.w.measured(op.due) || i == 0 {
		return cur.at, true
	}
	prev := tl.recs[i-1].a
	calls := cur.a.RatingCalls - prev.RatingCalls
	switch {
	case cur.a.RatedThreats < 1:
		ps.problem("%s version %d rated %d threats, want ≥ 1", op.tenant, op.version, cur.a.RatedThreats)
	case cur.a.Generation == prev.Generation+1 && calls != uint64(cur.a.RatedThreats):
		ps.problem("%s generation %d spent %d rating calls on %d dirty threats", op.tenant, cur.a.Generation, calls, cur.a.RatedThreats)
	case calls < uint64(cur.a.RatedThreats):
		ps.problem("%s generation %d spent %d rating calls, fewer than its %d dirty threats", op.tenant, cur.a.Generation, calls, cur.a.RatedThreats)
	}
	return cur.at, true
}

// pubLog records the social monitor's published assessments: the
// publication instant and how many ingested posts each covers.
type pubLog struct {
	done chan struct{}
	at   []time.Time
	ing  []int
}

// watchMonitor records every generation the monitor publishes until ctx
// ends (a burst can coalesce two generations into the later one, which
// covers at least as much).
func watchMonitor(ctx context.Context, m *psp.Monitor) *pubLog {
	l := &pubLog{done: make(chan struct{})}
	var gen uint64
	if a := m.Assessment(); a != nil {
		gen = a.Generation
	}
	go func() {
		defer close(l.done)
		for {
			a, err := m.WaitFor(ctx, gen+1)
			if err != nil {
				return
			}
			gen = a.Generation
			l.at = append(l.at, a.UpdatedAt)
			l.ing = append(l.ing, a.Ingested)
		}
	}()
	return l
}

func (l *pubLog) wait() { <-l.done }

// covering returns the publication instant of the first assessment
// covering cum ingested posts. Call after wait.
func (l *pubLog) covering(cum int) (time.Time, bool) {
	for i, n := range l.ing {
		if n >= cum {
			return l.at[i], true
		}
	}
	return time.Time{}, false
}

// waitIngested waits until the monitor has published an assessment
// covering total ingested posts, or drainTimeout passes, and returns
// the last assessment.
func waitIngested(ctx context.Context, m *psp.Monitor, total int) *psp.Assessment {
	ctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	cur := m.Assessment()
	for cur != nil && cur.Ingested < total {
		next, err := m.WaitFor(ctx, cur.Generation+1)
		if err != nil {
			break
		}
		cur = next
	}
	return cur
}

// tenantRec is one observed tenant publication and when the watcher
// saw it. A tenant assessment's UpdatedAt is stamped when its rating
// pass starts, so freshness uses the observation instant instead.
type tenantRec struct {
	at time.Time
	a  *psp.TenantAssessment
}

// tenantLog records a TARA tenant's publications; recs is read after
// wait.
type tenantLog struct {
	fleet *psp.TARAMonitor
	name  string
	done  chan struct{}
	recs  []tenantRec
}

func watchTenant(ctx context.Context, fleet *psp.TARAMonitor, name string) *tenantLog {
	l := &tenantLog{fleet: fleet, name: name, done: make(chan struct{})}
	var gen uint64
	if ten, ok := fleet.Registry().Get(name); ok {
		if a := ten.Assessment(); a != nil {
			gen = a.Generation
			l.recs = append(l.recs, tenantRec{at: time.Now(), a: a})
		}
	}
	go func() {
		defer close(l.done)
		for {
			a, err := fleet.WaitForTenant(ctx, name, gen+1)
			if err != nil {
				return
			}
			gen = a.Generation
			l.recs = append(l.recs, tenantRec{at: time.Now(), a: a})
		}
	}()
	return l
}

// waitVersion waits until the tenant has published a rating of version
// v, or drainTimeout passes.
func (l *tenantLog) waitVersion(ctx context.Context, v uint64) {
	ctx, cancel := context.WithTimeout(ctx, drainTimeout)
	defer cancel()
	for {
		ten, ok := l.fleet.Registry().Get(l.name)
		if !ok {
			return
		}
		cur := ten.Assessment()
		if cur == nil || cur.Version >= v {
			return
		}
		if _, err := l.fleet.WaitForTenant(ctx, l.name, cur.Generation+1); err != nil {
			return
		}
	}
}

func (l *tenantLog) wait() { <-l.done }

// covering returns the index of the first recorded publication rating
// version v or later. Call after wait.
func (l *tenantLog) covering(v uint64) (int, bool) {
	for i, r := range l.recs {
		if r.a.Version >= v {
			return i, true
		}
	}
	return 0, false
}
