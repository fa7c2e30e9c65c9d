package daemon

import (
	"path/filepath"
	"testing"
	"time"

	psp "github.com/psp-framework/psp"
)

func TestOpenStoreGeneratesByDefault(t *testing.T) {
	store, recovered, err := OpenStore(Flags{Seed: 42}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("generated store is empty")
	}
	if recovered {
		t.Fatal("in-memory store reported recovered")
	}
}

func TestOpenStoreMissingCorpusFile(t *testing.T) {
	if _, _, err := OpenStore(Flags{Corpus: "/nonexistent/corpus.jsonl"}, nil); err == nil {
		t.Error("missing file accepted")
	}
}

// TestOpenStoreDurableRecovers: the first open seeds an empty data
// directory from -corpus; the second recovers it without seeding.
func TestOpenStoreDurableRecovers(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.jsonl")
	posts := []*psp.Post{
		{ID: "p1", Author: "a", Text: "#chiptuning remap", CreatedAt: time.Date(2023, 5, 1, 10, 0, 0, 0, time.UTC)},
		{ID: "p2", Author: "b", Text: "#relayattack", CreatedAt: time.Date(2023, 5, 2, 10, 0, 0, 0, time.UTC)},
	}
	if err := psp.WriteSocialPostsFile(corpus, posts); err != nil {
		t.Fatal(err)
	}
	f := Flags{Corpus: corpus, DataDir: filepath.Join(dir, "data"), Shards: 2}
	for life, wantRecovered := range []bool{false, true} {
		store, recovered, err := OpenStore(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if recovered != wantRecovered || store.Len() != len(posts) {
			t.Fatalf("life %d: recovered=%v with %d posts, want %v with %d",
				life, recovered, store.Len(), wantRecovered, len(posts))
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
