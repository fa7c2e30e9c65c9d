package durable

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ManifestName is the manifest's file name within a data directory.
const ManifestName = "MANIFEST.json"

// ManifestVersion is the manifest schema version this build reads and
// writes. Version 3 names one snapshot file per stripe. Earlier
// versions are refused, not upgraded: version 0 (the field absent)
// named one whole-corpus JSON Lines snapshot, and version 2 named a
// JSON Lines posts file plus a binary index sidecar per stripe — their
// readers went with those formats. Versions from the future are
// refused too, because this code cannot know their semantics.
const ManifestVersion = 3

// Manifest tracks a data directory's current snapshot files and, per
// stripe, the WAL replay floor: every record with sequence ≤ the floor
// is fully reflected in the stripe's snapshot, so recovery replays only
// records above it. Manifests are replaced atomically; see the package
// documentation.
type Manifest struct {
	// Version is the manifest schema version (see ManifestVersion).
	Version int `json:"version"`
	// Shards is the stripe count the directory's WAL layout and
	// snapshot floors were built for. Reopening with a different count
	// is an error: the bucket→stripe mapping, and with it the per-stripe
	// logs, would no longer line up.
	Shards int `json:"shards"`
	// Gen increments with every snapshot compaction, naming snapshot
	// files uniquely so a crashed compaction never half-overwrites the
	// files the manifest still points at.
	Gen uint64 `json:"generation"`
	// Floors holds one replay floor per stripe.
	Floors []uint64 `json:"floors"`
	// Snapshots holds one snapshot file name per stripe, within the
	// snapshot directory (the file format belongs to internal/social).
	// An empty name means the stripe held no posts at its last
	// compaction.
	Snapshots []string `json:"snapshots"`
}

// LoadManifest reads a data directory's manifest, returning (nil, nil)
// when none exists yet.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("durable: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("durable: parse manifest: %w", err)
	}
	if m.Version > ManifestVersion {
		return nil, fmt.Errorf("durable: manifest version %d is newer than this build understands (%d)", m.Version, ManifestVersion)
	}
	if m.Version < ManifestVersion {
		return nil, fmt.Errorf("durable: data dir %s has manifest version %d, which this build does not open (it reads version %d); the directory was left untouched. "+
			"To migrate, run the previous build's `sociald -data-dir %s -dump corpus.jsonl`, then seed a new data directory with `-corpus corpus.jsonl`",
			dir, m.Version, ManifestVersion, dir)
	}
	if m.Shards <= 0 {
		return nil, fmt.Errorf("durable: manifest with invalid shard count %d", m.Shards)
	}
	if len(m.Floors) != m.Shards {
		return nil, fmt.Errorf("durable: manifest floors length %d != %d shards", len(m.Floors), m.Shards)
	}
	if len(m.Snapshots) != m.Shards {
		return nil, fmt.Errorf("durable: manifest snapshots length %d != %d shards", len(m.Snapshots), m.Shards)
	}
	return &m, nil
}

// Write atomically replaces the directory's manifest.
func (m *Manifest) Write(dir string) error {
	return WriteFileAtomic(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
}
