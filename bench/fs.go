package main

import (
	iofs "io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// fsCounters are the storage numbers of one artifact, or of a whole stack.
type fsCounters struct {
	WriteBytes uint64
	Syncs      uint64 // file fsyncs + directory fsyncs
}

func (a fsCounters) sub(b fsCounters) fsCounters {
	return fsCounters{WriteBytes: a.WriteBytes - b.WriteBytes, Syncs: a.Syncs - b.Syncs}
}

type fsCell struct{ writeBytes, syncs atomic.Uint64 }

func (c *fsCell) load() fsCounters {
	return fsCounters{WriteBytes: c.writeBytes.Load(), Syncs: c.syncs.Load()}
}

// benchFS is the one filesystem every durable component of a stack writes
// through. It counts bytes written and syncs per artifact — the first path
// element under the root ("audit.wal", "state", "n1-state", "outbox.wal",
// ...) — so a layer's storage cost can be read off by name.
type benchFS struct {
	base *memFS
	root string

	mu    sync.Mutex
	cells map[string]*fsCell
}

func newBenchFS(root string) *benchFS {
	return &benchFS{base: newMemFS(), root: filepath.Clean(root), cells: map[string]*fsCell{}}
}

// Close returns the files' memory.
func (b *benchFS) Close() { b.base.Close() }

// artifact maps a path under the root to its artifact name.
func (b *benchFS) artifact(name string) string {
	rel, err := filepath.Rel(b.root, filepath.Clean(name))
	if err != nil || strings.HasPrefix(rel, "..") {
		return "other"
	}
	first, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
	return first
}

func (b *benchFS) cell(name string) *fsCell {
	key := b.artifact(name)
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.cells[key]
	if c == nil {
		c = &fsCell{}
		b.cells[key] = c
	}
	return c
}

// Snapshot returns every artifact's counters.
func (b *benchFS) Snapshot() map[string]fsCounters {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]fsCounters, len(b.cells))
	for name, c := range b.cells {
		out[name] = c.load()
	}
	return out
}

// sumCounters adds up a snapshot's artifacts whose name satisfies match.
func sumCounters(snap map[string]fsCounters, match func(artifact string) bool) fsCounters {
	var out fsCounters
	for name, c := range snap {
		if match(name) {
			out.WriteBytes += c.WriteBytes
			out.Syncs += c.Syncs
		}
	}
	return out
}

// Matching sums the counters of every artifact whose name satisfies match.
func (b *benchFS) Matching(match func(artifact string) bool) fsCounters {
	return sumCounters(b.Snapshot(), match)
}

// Total returns the counters over every artifact.
func (b *benchFS) Total() fsCounters {
	return b.Matching(func(string) bool { return true })
}

func (b *benchFS) OpenFile(name string, flag int, perm iofs.FileMode) (File, error) {
	f, err := b.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &benchFile{File: f, cell: b.cell(name)}, nil
}

func (b *benchFS) ReadFile(name string) ([]byte, error) { return b.base.ReadFile(name) }

func (b *benchFS) Rename(oldpath, newpath string) error { return b.base.Rename(oldpath, newpath) }

func (b *benchFS) Remove(name string) error { return b.base.Remove(name) }

func (b *benchFS) MkdirAll(path string, perm iofs.FileMode) error {
	return b.base.MkdirAll(path, perm)
}

func (b *benchFS) Stat(name string) (iofs.FileInfo, error) { return b.base.Stat(name) }

func (b *benchFS) SyncDir(name string) error {
	b.cell(name).syncs.Add(1)
	return b.base.SyncDir(name)
}

// benchFile embeds the file for Truncate and Close, and counts the rest.
type benchFile struct {
	File
	cell *fsCell
}

func (f *benchFile) Write(p []byte) (int, error) {
	f.cell.writeBytes.Add(uint64(len(p)))
	return f.File.Write(p)
}

func (f *benchFile) Sync() error {
	f.cell.syncs.Add(1)
	return f.File.Sync()
}
