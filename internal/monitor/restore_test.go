package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/obs"
	"github.com/psp-framework/psp/internal/social"
	"github.com/psp-framework/psp/internal/tara"
)

// openSmallDurableStore is openSeededDurableStore over every tenth post
// of the reference corpus: every topic stays populated, and the state
// file stays small enough to damage at every offset.
func openSmallDurableStore(t *testing.T, dir string) *social.Store {
	t.Helper()
	store, err := social.OpenStoreDir(dir, social.DurableOptions{Shards: 4, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		posts, err := social.Generate(social.DefaultCorpusSpec(42))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(posts); i += 10 {
			if err := store.Add(posts[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

// persistedLife runs a monitor over store until it has published a
// recomputed delta generation and saved it, and returns the saved
// state file's bytes with the last assessment the monitor published.
func persistedLife(t *testing.T, store *social.Store, in core.SocialInput, statePath string) ([]byte, *Assessment) {
	t.Helper()
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, stop := runMonitor(t, Config{
		Framework: fw,
		Store:     store,
		Input:     in,
		Debounce:  20 * time.Millisecond,
		State:     NewFileStateStore(statePath),
	})
	first := waitGen(t, m, 1)
	if err := store.Add(deltaPost(1, "hot new #chiptuning stage1 file")); err != nil {
		t.Fatal(err)
	}
	waitGen(t, m, first.Generation+1)
	stop()
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	return data, m.Assessment()
}

// restoredView is what a restore serves and what it restores the cache
// to, rendered for comparison.
type restoredView struct {
	assessment []byte
	fills      []core.FillState
	memos      []core.MemoState
}

// restoreStep runs Run's warm restore alone: it restores the result
// cache from the configured state and, when the state is usable,
// publishes the restored assessment and returns the catch-up delta.
// ok=false means the state was unusable and Run would start cold; the
// cold run is not made.
func restoreStep(m *Monitor) (delta []*social.Post, ok bool, err error) {
	st, delta := m.tryRestore()
	if st == nil {
		return nil, false, nil
	}
	return delta, true, m.initialAssessment(context.Background(), st, len(delta))
}

// probeRestore runs only the restore step of a new monitor over cfg and
// reports what it restored, or ok=false when it fell back to cold. It
// reports through err rather than a testing.T, so probes can run on
// several goroutines.
func probeRestore(cfg Config) (view restoredView, ok bool, err error) {
	m, err := New(cfg)
	if err != nil {
		return view, false, err
	}
	if _, ok, err := restoreStep(m); err != nil || !ok {
		if err == nil && (m.Assessment() != nil || m.rc.Queries().Len() != 0) {
			err = errors.New("a failed restore left an assessment or cache behind")
		}
		return view, false, err
	}
	assessment, err := json.Marshal(renderAssessment(m.Assessment()))
	if err != nil {
		return view, false, err
	}
	return restoredView{assessment, m.rc.ExportFills(), m.rc.ExportMemos()}, true, nil
}

// TestRestoreDamagedStateFile: a state file cut at every offset, or with
// every 7th byte flipped, either restores exactly what the undamaged file
// restores — the assessment and the result cache, fills and memos — or
// leaves the monitor to run cold. It never serves anything else. The
// probes run on one worker per CPU, each with its own state file.
func TestRestoreDamagedStateFile(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	store := openSmallDurableStore(t, filepath.Join(dir, "store"))
	defer store.Close()
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	full, _ := persistedLife(t, store, in, statePath)
	t.Logf("state file: %d bytes", len(full))

	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Framework: fw, Store: store, Input: in, State: NewFileStateStore(statePath)}
	want, ok, err := probeRestore(cfg)
	if err != nil || !ok {
		t.Fatalf("the undamaged state file did not restore (err %v)", err)
	}
	if len(want.memos) == 0 {
		t.Fatal("the undamaged state restored no memos; the test is vacuous")
	}

	// A probe is a cut (flip < 0) or a flip of byte flip (cut < 0).
	type probe struct{ cut, flip int }
	check := func(cfg Config, path string, p probe) error {
		var data []byte
		if p.cut >= 0 {
			data = full[:p.cut]
		} else {
			data = append([]byte(nil), full...)
			data[p.flip] ^= 0x40
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		got, ok, err := probeRestore(cfg)
		if err != nil || !ok {
			return err // nil: cold
		}
		if !bytes.Equal(got.assessment, want.assessment) ||
			!reflect.DeepEqual(got.fills, want.fills) || !reflect.DeepEqual(got.memos, want.memos) {
			return errors.New("restored state differs from the undamaged restore")
		}
		return nil
	}
	probes := make(chan probe)
	var (
		mu     sync.Mutex
		failed []string
		probed int
		wg     sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		path := filepath.Join(dir, fmt.Sprintf("probe-%d.state", w))
		wcfg := cfg
		wcfg.State = NewFileStateStore(path)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range probes {
				err := check(wcfg, path, p)
				mu.Lock()
				probed++
				if err != nil {
					failed = append(failed, fmt.Sprintf("%+v: %v", p, err))
				}
				mu.Unlock()
			}
		}()
	}
	for cut := 0; cut < len(full); cut++ {
		probes <- probe{cut: cut, flip: -1}
	}
	for off := 0; off < len(full); off += 7 {
		probes <- probe{cut: -1, flip: off}
	}
	close(probes)
	wg.Wait()
	if want := len(full) + (len(full)+6)/7; probed != want {
		t.Fatalf("probed %d damaged files, want %d", probed, want)
	}
	if len(failed) > 0 {
		t.Fatalf("%d damaged files served a wrong restore, first %s", len(failed), failed[0])
	}
}

// legacyState is the monitor state of earlier builds: a JSON document
// that also carried the assessment's result, and — in the JSON layout
// before the binary state file — the fills as query plus post IDs.
type legacyState struct {
	Saved      time.Time            `json:"saved_at"`
	InputSig   string               `json:"input_sig"`
	Generation uint64               `json:"generation"`
	UpdatedAt  time.Time            `json:"updated_at"`
	CorpusSize int                  `json:"corpus_size"`
	Cursor     social.DurableCursor `json:"cursor"`
	Result     json.RawMessage      `json:"result"`
	Fills      []legacyFill         `json:"fills,omitempty"`
}

// legacyResult is a "result" object in the JSON form earlier builds
// persisted the assessment in: vectors and ratings by display name,
// tables as {name, ratings}. Its figures answer nothing the tests
// monitor, so a restore that served them would differ from the life
// that saved the state.
const legacyResult = `{"index":[{"topic":"chiptuning","tags":["chiptuning","remap"],"posts":12,"score":3.5,"probability":0.75,"insider":true,"vector_shares":{"Local":0.25,"Physical":0.75}}],` +
	`"keywords":[{"topic":"chiptuning","tags":["chiptuning","remap"]}],` +
	`"outsider_table":{"name":"ISO/SAE 21434 G.9 (attack vector-based)","ratings":{"Adjacent":"Medium","Local":"Low","Network":"High","Physical":"Very Low"}},` +
	`"tunings":[{"threat_id":"TS-ECM-01","insider":true,"posts":12,"vector_shares":{"Local":0.25,"Physical":0.75},"factors":{"Local":1,"Physical":3},` +
	`"table":{"name":"PSP insider","ratings":{"Adjacent":"Very Low","Local":"Medium","Network":"Low","Physical":"High"}}}],` +
	`"inauthentic_filtered":0,"since":"2022-01-01T00:00:00Z","until":"2023-01-01T00:00:00Z"}`

type legacyFill struct {
	Query   social.Query `json:"query"`
	PostIDs []string     `json:"post_ids"`
}

// TestRestoreLegacyJSONState: a state file in the previous build's JSON
// layout — one the previous build would have restored, with its input
// signature, a current cursor and resolvable fills — runs cold, and the
// first save replaces it with a state the next start restores.
func TestRestoreLegacyJSONState(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.json")
	store := openSmallDurableStore(t, filepath.Join(dir, "store"))
	defer store.Close()
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	persistedLife(t, store, in, statePath)
	st, err := NewFileStateStore(statePath).Load()
	if err != nil || st == nil {
		t.Fatalf("load the saved state: %v", err)
	}
	sig, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyState{
		Saved: st.UpdatedAt, InputSig: string(sig), Generation: st.Generation, UpdatedAt: st.UpdatedAt,
		CorpusSize: st.CorpusSize, Cursor: st.Cursor, Result: json.RawMessage(legacyResult),
	}
	for _, f := range st.Fills {
		legacy.Fills = append(legacy.Fills, legacyFill{Query: f.Query, PostIDs: f.PostIDs})
	}
	data, err := json.MarshalIndent(legacy, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(statePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if st, err := NewFileStateStore(statePath).Load(); err == nil || st != nil {
		t.Fatalf("a JSON state file loaded: %+v, %v", st, err)
	}

	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Framework: fw, Store: store, Input: in, Debounce: 20 * time.Millisecond, State: NewFileStateStore(statePath)}
	m, stop := runMonitor(t, cfg)
	first := waitGen(t, m, 1)
	if first.Restored || !first.FullRun {
		t.Fatalf("the legacy JSON state was restored: %+v", first)
	}
	stop()
	// The cold run's save replaced the file; the next start is warm and
	// serves what the cold run published.
	view, ok, err := probeRestore(cfg)
	if err != nil || !ok {
		t.Fatalf("the state saved over the legacy file does not restore (err %v)", err)
	}
	coldView, err := json.Marshal(renderAssessment(first))
	if err != nil {
		t.Fatal(err)
	}
	var a, b assessmentResponse
	if err := json.Unmarshal(view.assessment, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(coldView, &b); err != nil {
		t.Fatal(err)
	}
	// Only the provenance flags differ.
	a.Restored, a.FullRun, a.Recomputed = b.Restored, b.FullRun, b.Recomputed
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the restored assessment differs from the cold run that saved it")
	}
}

// TestRestoreStateWithResultSection: a binary state file whose first
// section still carries the assessment's result, as earlier builds
// wrote it, restores warm. The restore ignores that result and
// re-derives the one the saving monitor published last from the
// restored cache, without a platform query.
func TestRestoreStateWithResultSection(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	store := openSmallDurableStore(t, filepath.Join(dir, "store"))
	defer store.Close()
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	_, last := persistedLife(t, store, in, statePath)
	st, err := NewFileStateStore(statePath).Load()
	if err != nil || st == nil {
		t.Fatalf("load the saved state: %v", err)
	}
	meta, err := json.Marshal(legacyState{
		Saved: st.UpdatedAt, InputSig: st.InputSig, Generation: st.Generation, UpdatedAt: st.UpdatedAt,
		CorpusSize: st.CorpusSize, Cursor: st.Cursor, Result: json.RawMessage(legacyResult),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := durable.AppendSection([]byte(stateMagic), func(b []byte) []byte { return append(b, meta...) })
	data = durable.AppendSection(data, func(b []byte) []byte { return core.AppendFills(b, st.Fills) })
	data = durable.AppendSection(data, func(b []byte) []byte { return core.AppendMemos(b, st.Memos) })
	if err := os.WriteFile(statePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	tap := &tapSearcher{inner: store}
	fw, err := core.New(core.Config{Searcher: tap})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Framework: fw, Store: store, Searcher: tap, Input: in, State: NewFileStateStore(statePath)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := restoreStep(m); err != nil || !ok {
		t.Fatalf("a state file with a result section did not restore warm (err %v)", err)
	}
	restored := m.Assessment()
	if !restored.Restored || restored.Generation != last.Generation {
		t.Fatalf("restored generation %d (restored=%v), want the saved generation %d",
			restored.Generation, restored.Restored, last.Generation)
	}
	if !reflect.DeepEqual(restored.Result, last.Result) {
		t.Fatal("the restored result differs from the one the saving monitor published last")
	}
	if n := tap.calls.Load(); n != 0 {
		t.Fatalf("the restore cost %d platform queries, want 0", n)
	}
}

// TestRestoreCatchUpPatchesFills: when the workflow queries the watched
// store itself, a warm restart's catch-up delta patches the restored
// listings instead of dropping them, so the catch-up run sends the
// store no query for a restored listing. Applying the catch-up twice —
// a restart whose live feed re-delivers posts the catch-up read —
// changes nothing. Every patched listing equals a fresh drain of the
// store, and the caught-up result equals a cold run.
func TestRestoreCatchUpPatchesFills(t *testing.T) {
	dir := t.TempDir()
	statePath := filepath.Join(dir, "monitor.state")
	in := core.SocialInput{Threats: []*tara.ThreatScenario{ecmThreat()}}
	store := openSmallDurableStore(t, filepath.Join(dir, "store"))
	persistedLife(t, store, in, statePath)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store = openSmallDurableStore(t, filepath.Join(dir, "store"))
	defer store.Close()
	var gap []*social.Post
	for i := 100; i < 112; i++ {
		text := "another #chiptuning remap drop"
		if i%3 == 0 {
			text = "idle #fillerchatter about the weather"
		}
		gap = append(gap, deltaPost(i, text))
	}
	if err := store.Add(gap...); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	store.SetTracer(obs.NewTracer(obs.TracerOptions{SampleRate: 1, Registry: reg}))
	searches := reg.Counter("psp_trace_spans_total", "", obs.Label{Key: "span", Value: "store.search"})
	fw, err := core.New(core.Config{Searcher: store})
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Config{Framework: fw, Store: store, Input: in, State: NewFileStateStore(statePath)})
	if err != nil {
		t.Fatal(err)
	}
	delta, ok, err := restoreStep(m)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || len(delta) != len(gap) {
		t.Fatalf("restore ok=%v with a %d-post catch-up, want the %d-post gap", ok, len(delta), len(gap))
	}
	restored := len(m.rc.ExportFills())

	var w window
	m.classify(&w, social.ProfilePosts(delta))
	if !m.owed || w.matched == 0 {
		t.Fatal("the catch-up matched no restored listing; the test is vacuous")
	}
	patched := m.rc.ExportFills()
	if len(patched) != restored {
		t.Fatalf("the catch-up left %d of %d restored listings", len(patched), restored)
	}
	m.classify(&w, social.ProfilePosts(delta))
	if !reflect.DeepEqual(m.rc.ExportFills(), patched) {
		t.Fatal("re-delivering the catch-up changed the patched listings")
	}

	ctx := context.Background()
	res, err := fw.RunSocialDelta(ctx, in, m.rc)
	if err != nil {
		t.Fatal(err)
	}
	if n := searches.Value(); n != 0 {
		t.Errorf("the catch-up run sent the store %d queries, want 0", n)
	}
	for _, fs := range patched {
		q := fs.Query
		q.MaxResults = social.MaxPageSize
		posts, err := social.SearchAll(ctx, store, q)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]string, len(posts))
		for i, p := range posts {
			ids[i] = p.ID
		}
		if !reflect.DeepEqual(fs.PostIDs, ids) {
			t.Errorf("patched listing %+v holds %d posts, a fresh drain %d", fs.Query, len(fs.PostIDs), len(ids))
		}
	}
	cold, err := fw.RunSocial(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, cold) {
		t.Fatal("the caught-up result diverged from a cold run over the merged corpus")
	}
}
