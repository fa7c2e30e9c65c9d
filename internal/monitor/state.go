package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"github.com/psp-framework/psp/internal/core"
	"github.com/psp-framework/psp/internal/durable"
	"github.com/psp-framework/psp/internal/social"
)

// State is a monitor's persisted warm-restart image: the published
// assessment's metadata, the result cache — its fills as post IDs, its
// slice memos as per-post features and co-occurrence graphs — and the
// durable store cursor the state was taken at. The assessment's result
// is not part of it: a restarted daemon that loads a State re-derives
// the result from the restored cache with one delta run that queries
// no platform and tokenizes no post, serves it under the persisted
// generation, and catches up with PostsSince(Cursor) — an incremental
// delta run that re-analyzes only posts the saved cache never saw —
// instead of a cold full workflow.
type State struct {
	// InputSig fingerprints the monitored input (application, region,
	// window, threat scenarios, flags) and the framework's analysis
	// configuration (weights, rating bands, learning cap, keyword
	// database). A state whose signature does not match is discarded:
	// it answers a different monitoring question, or answers it
	// differently. Threat scenarios enter it in their TARA wire form,
	// enumerations spelled by name, so a state saved by a build that
	// spelled them as integers does not match and that start runs cold.
	InputSig string `json:"input_sig"`
	// Generation, UpdatedAt and CorpusSize mirror the persisted
	// assessment's metadata, so the restored snapshot reports the same
	// freshness (and the same ETag) it did before the restart.
	Generation uint64    `json:"generation"`
	UpdatedAt  time.Time `json:"updated_at"`
	CorpusSize int       `json:"corpus_size"`
	// Cursor is the watched store's durable WAL position at (or
	// conservatively before) the state capture; posts above it form the
	// restart delta.
	Cursor social.DurableCursor `json:"cursor"`
	// Fills are the listing cache's entries, by post ID.
	Fills []core.FillState `json:"-"`
	// Memos are the result cache's slice memos, bound to Fills by key.
	Memos []core.MemoState `json:"-"`
}

// StateStore persists monitor state. Load returns (nil, nil) when no
// state exists yet; a Load error is treated as "no usable state" (the
// monitor runs cold), a Save error is surfaced through
// Monitor.LastError. Save returns the size of the saved image in
// bytes, which the monitor.save span reports.
type StateStore interface {
	Load() (*State, error)
	Save(*State) (int, error)
}

// FileStateStore keeps the state in one binary file, replaced
// atomically on every save so a crash mid-save can never leave a torn
// state for the next start to trip over. The file is a magic followed
// by three framed sections (durable.AppendSection), each with its own
// length and CRC-32C:
//
//	offset 0  8-byte magic "PSPMONS1"
//	then      metadata section: the State's JSON fields (input
//	          signature, generation, updated-at, corpus size, cursor)
//	then      fills section: core.AppendFills
//	then      memos section: core.AppendMemos, ending the file
//
// The state is a cache derived from the store, so any damage — a bad
// magic, a failed checksum, a short or undecodable section, a file in
// the older JSON layout — loads as no usable state, and the monitor
// runs cold and overwrites it at its first save. The metadata section
// is decoded as JSON, so keys it no longer uses — the "result" and
// "saved_at" of earlier builds — are ignored and such a file restores.
//
// Each save encodes into one buffer allocated for it alone, sized from
// the previous save's image plus headroom, so the image — which grows
// slowly as listings gain posts — is not re-grown by doubling on the
// way. The buffer is not kept between saves: it would pin an idle
// image-sized block for the process's life.
type FileStateStore struct {
	Path string
	// lastLen is the previous save's image size in bytes.
	lastLen atomic.Int64
}

const stateMagic = "PSPMONS1"

// NewFileStateStore persists monitor state at path.
func NewFileStateStore(path string) *FileStateStore { return &FileStateStore{Path: path} }

// Load reads the state file; a missing file is (nil, nil).
func (f *FileStateStore) Load() (*State, error) {
	data, err := os.ReadFile(f.Path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("monitor: read state: %w", err)
	}
	st, err := decodeState(data)
	if err != nil {
		return nil, fmt.Errorf("monitor: state %s: %w", f.Path, err)
	}
	return st, nil
}

// Save atomically replaces the state file, returning its size.
func (f *FileStateStore) Save(st *State) (int, error) {
	last := f.lastLen.Load()
	data, err := encodeState(make([]byte, 0, last+last/8), st)
	if err != nil {
		return 0, err
	}
	err = durable.WriteFileAtomic(f.Path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return 0, err
	}
	f.lastLen.Store(int64(len(data)))
	return len(data), nil
}

// encodeState appends the state file image of st to buf.
func encodeState(buf []byte, st *State) ([]byte, error) {
	meta, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("monitor: encode state: %w", err)
	}
	buf = durable.AppendSection(append(buf, stateMagic...), func(b []byte) []byte { return append(b, meta...) })
	buf = durable.AppendSection(buf, func(b []byte) []byte { return core.AppendFills(b, st.Fills) })
	return durable.AppendSection(buf, func(b []byte) []byte { return core.AppendMemos(b, st.Memos) }), nil
}

func decodeState(data []byte) (*State, error) {
	if len(data) < len(stateMagic) || string(data[:len(stateMagic)]) != stateMagic {
		return nil, fmt.Errorf("bad magic (not a %q file)", stateMagic)
	}
	meta, rest, err := durable.ReadSection(data[len(stateMagic):], "metadata")
	if err != nil {
		return nil, err
	}
	fills, rest, err := durable.ReadSection(rest, "fills")
	if err != nil {
		return nil, err
	}
	memos, rest, err := durable.ReadSection(rest, "memos")
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after the memos section", len(rest))
	}
	var st State
	if err := json.Unmarshal(meta, &st); err != nil {
		return nil, fmt.Errorf("metadata section: %w", err)
	}
	if st.Fills, err = core.DecodeFills(fills); err != nil {
		return nil, err
	}
	if st.Memos, err = core.DecodeMemos(memos); err != nil {
		return nil, err
	}
	return &st, nil
}

// stateSignature fingerprints the monitored input and the framework's
// analysis configuration. JSON over a normalized struct: threat
// scenarios serialize whole, in their TARA wire form, so editing a
// scenario's keywords (which changes its platform queries) invalidates
// persisted state just like changing the application filter or the
// attraction weights does.
func stateSignature(fw *core.Framework, in core.SocialInput) string {
	data, err := json.Marshal(in)
	if err != nil {
		// SocialInput is plain data; an unmarshalable value still yields
		// a stable non-matching signature.
		return fmt.Sprintf("unmarshalable: %v", err)
	}
	return string(data) + "|" + fw.AnalysisSignature()
}
