package social

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"github.com/psp-framework/psp/internal/durable"
)

// Corpus snapshots persist as JSON Lines: one post per line. The format
// is stable (Post carries explicit JSON tags) so snapshots survive
// refactoring.

// WritePosts streams posts to w as JSON Lines.
func WritePosts(w io.Writer, posts []*Post) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, p := range posts {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("social: write post %d: %w", i, err)
		}
		if err := enc.Encode(p); err != nil {
			return fmt.Errorf("social: encode post %s: %w", p.ID, err)
		}
	}
	return bw.Flush()
}

// ReadPosts parses a JSON Lines stream back into posts, validating each.
func ReadPosts(r io.Reader) ([]*Post, error) {
	var posts []*Post
	dec := json.NewDecoder(r)
	for {
		var p Post
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				return posts, nil
			}
			return nil, fmt.Errorf("social: decode post %d: %w", len(posts), err)
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("social: read post %d: %w", len(posts), err)
		}
		posts = append(posts, &p)
	}
}

// SnapshotPosts returns every stored post in (CreatedAt, ID) order from
// the stripes' published snapshots. Like Search it is lock-free and
// never blocks writers, so a periodic persistence pass can dump a live
// store without stalling ingest — and like Search it is per-stripe
// consistent, not store-wide: a concurrent multi-stripe Add may appear
// with only its earlier stripes' posts included, exactly as if the
// batch had been split into per-stripe Adds. The returned slice is
// owned by the caller; the posts it points at are shared and must not
// be mutated.
func (s *Store) SnapshotPosts() []*Post {
	iters := make([]*shardIter, len(s.shards))
	total := 0
	for i, sh := range s.shards {
		sn := sh.view()
		iters[i] = sn.matchIter(&Query{}, nil, nil, nil)
		total += len(sn.base.byTime) + len(sn.delta.byTime)
	}
	return mergeShardStreams(iters, total)
}

// WriteStore streams the store's current contents to w as JSON Lines —
// the snapshot counterpart of LoadStore. The dump is taken lock-free
// via SnapshotPosts, so writers keep committing while it runs.
func WriteStore(w io.Writer, s *Store) error {
	return WritePosts(w, s.SnapshotPosts())
}

// WritePostsFile dumps posts to path as JSON Lines, atomically: the
// dump goes to a temporary file in the same directory, is fsync'd, and
// renamed into place. A crash mid-dump can therefore never leave a
// truncated file for LoadStoreShards to half-parse — path either still
// holds its previous content or the complete new snapshot. The daemons'
// -dump output writes through this.
func WritePostsFile(path string, posts []*Post) error {
	return durable.WriteFileAtomic(path, func(w io.Writer) error {
		return WritePosts(w, posts)
	})
}

// WriteStoreFile atomically dumps the store's current contents to path
// as JSON Lines — WriteStore with the crash-safety of WritePostsFile.
// The dump is taken lock-free via SnapshotPosts, so writers keep
// committing while it runs.
func WriteStoreFile(path string, s *Store) error {
	return WritePostsFile(path, s.SnapshotPosts())
}

// LoadStore reads a JSON Lines snapshot into a fresh store.
func LoadStore(r io.Reader) (*Store, error) {
	return LoadStoreShards(r, 0)
}

// LoadStoreShards is LoadStore with an explicit shard count (see
// NewStoreShards).
func LoadStoreShards(r io.Reader, shards int) (*Store, error) {
	posts, err := ReadPosts(r)
	if err != nil {
		return nil, err
	}
	s := NewStoreShards(shards)
	if err := s.Add(posts...); err != nil {
		return nil, err
	}
	return s, nil
}
