package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	psp "github.com/psp-framework/psp"
	"github.com/psp-framework/psp/internal/daemon"
)

// TestDumpAndLoadSnapshot: -dump writes the served store, and a
// -corpus boot from that file serves the same posts.
func TestDumpAndLoadSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.jsonl")

	store, _, err := daemon.OpenStore(daemon.Flags{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpCorpus(store, 7, path, psp.NopLogger()); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("snapshot missing or empty: %v", err)
	}

	back, _, err := daemon.OpenStore(daemon.Flags{Corpus: path, Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != store.Len() {
		t.Errorf("snapshot round trip: %d posts, want %d", back.Len(), store.Len())
	}
}

// TestRunServesAndShutsDownGracefully boots the server and cancels the
// signal context — the SIGINT/SIGTERM path — expecting a clean exit.
func TestRunServesAndShutsDownGracefully(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			Flags: daemon.Flags{Seed: 7, Shards: 4, LogLevel: "warn", LogFormat: "text"},
			addr:  addr,
		})
	}()

	url := "http://" + addr + "/v2/healthz"
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The search API is instrumented: a search records under the
	// store.search span and HTTP families, and /v1/metrics serves the
	// exposition.
	resp, err := http.Get("http://" + addr + "/v2/search?q=chiptuning")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no request ID on search response")
	}
	// Client-chosen paths share one route label: two random /v2/ paths
	// must not mint their own series.
	for i := 0; i < 2; i++ {
		resp, err := http.Get(fmt.Sprintf("http://%s/v2/x%d", addr, rand.Int63()))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
		}
	}
	resp, err = http.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`psp_trace_spans_total{span="store.search"} 1`,
		`psp_http_requests_total{code="2xx",route="/v2/search"} 1`,
		`psp_http_requests_total{code="4xx",route="/v2/other"} 2`,
	} {
		if !strings.Contains(string(exposition), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	routes := map[string]bool{"/v2/search": true, "/v2/healthz": true, "/v2/other": true}
	for _, m := range regexp.MustCompile(`(?:route="|span="http\.server )([^"]*)"`).FindAllStringSubmatch(string(exposition), -1) {
		if !routes[m[1]] {
			t.Errorf("exposition carries unbounded route label %q", m[0])
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if _, err := http.Get(url); err == nil {
		t.Error("server still serving after shutdown")
	}
}
