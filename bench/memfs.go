package main

import (
	"fmt"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// memFS is the filesystem under every durable component of a stack: files
// live in anonymous memory mappings of this process, as they would in tmpfs.
//
// Why not a directory: on this box's shared virtio disk the same code's
// fsyncs take 2-4 ms in one run and several times that in the next, and no
// CPU calibration cancels a disk — interleaved runs of steady_sessions spread
// 6-10 % on ext4 and 2-3 % on tmpfs. The driver keeps a run's reads and
// writes inside its checkout, so /dev/shm is out; memory is not a write
// anywhere. Fsync is therefore free here: the storage numbers are the byte
// and sync counts benchFS keeps, not device time.
//
// The mappings are outside the Go heap on purpose: half a gigabyte of
// journal on the heap would slow the collector's pacing as the run went and
// land in heap_mb_end.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	// all is every file ever created: removing or renaming over a file only
	// drops its name, so a handle still open on it stays valid, as on POSIX;
	// Close unmaps the lot.
	all []*memFile
}

// memChunk is the size of one mapping; a file is a list of them.
const memChunk = 1 << 20

type memFile struct {
	mu     sync.Mutex
	chunks [][]byte
	size   int64
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memFile{}}
}

func notExist(op, name string) error {
	return &iofs.PathError{Op: op, Path: name, Err: iofs.ErrNotExist}
}

// OpenFile supports what the durable components use: write-only handles
// that append, with O_CREATE and O_TRUNC.
func (m *memFS) OpenFile(name string, flag int, _ iofs.FileMode) (File, error) {
	if flag&(os.O_WRONLY|os.O_RDWR) == 0 || flag&os.O_APPEND == 0 && flag&os.O_TRUNC == 0 {
		return nil, &iofs.PathError{Op: "open", Path: name, Err: fmt.Errorf("memFS: unsupported open flags %#x", flag)}
	}
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[name]
	if f == nil {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		f = &memFile{}
		m.files[name] = f
		m.all = append(m.all, f)
	}
	if flag&os.O_TRUNC != 0 {
		if err := f.Truncate(0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (m *memFS) lookup(op, name string) (*memFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f := m.files[filepath.Clean(name)]; f != nil {
		return f, nil
	}
	return nil, notExist(op, name)
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	f, err := m.lookup("open", name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]byte, f.size)
	for i, rest := 0, out; len(rest) > 0; i++ {
		rest = rest[copy(rest, f.chunks[i]):]
	}
	return out, nil
}

// Rename moves a file over whatever the new name held.
func (m *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.files[oldpath]
	if f == nil {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

// MkdirAll has nothing to do: directories exist only as prefixes of names.
func (m *memFS) MkdirAll(string, iofs.FileMode) error { return nil }

// Stat answers for files only; the stores use it to ask whether one exists.
func (m *memFS) Stat(name string) (iofs.FileInfo, error) {
	f, err := m.lookup("stat", name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return memInfo{name: filepath.Base(name), size: f.size}, nil
}

func (m *memFS) SyncDir(string) error { return nil }

// Close returns every file's memory. Nothing may use the filesystem after.
func (m *memFS) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.all {
		_ = f.Truncate(0)
	}
	m.files, m.all = map[string]*memFile{}, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for rest := p; len(rest) > 0; {
		i, off := int(f.size/memChunk), int(f.size%memChunk)
		if i == len(f.chunks) {
			c, err := syscall.Mmap(-1, 0, memChunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				return len(p) - len(rest), fmt.Errorf("memFS: mapping memory: %w", err)
			}
			f.chunks = append(f.chunks, c)
		}
		n := copy(f.chunks[i][off:], rest)
		f.size += int64(n)
		rest = rest[n:]
	}
	return len(p), nil
}

func (f *memFile) Sync() error { return nil }

// Truncate only ever shrinks a file here (a journal drops a torn tail or,
// after a compaction, everything but its header).
func (f *memFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if size < 0 || size > f.size {
		return fmt.Errorf("memFS: truncate to %d of a %d-byte file", size, f.size)
	}
	f.size = size
	keep := int((size + memChunk - 1) / memChunk)
	for _, c := range f.chunks[keep:] {
		_ = syscall.Munmap(c) // a failed unmap only keeps the memory mapped
	}
	f.chunks = f.chunks[:keep]
	return nil
}

func (f *memFile) Close() error { return nil }

type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string        { return i.name }
func (i memInfo) Size() int64         { return i.size }
func (i memInfo) Mode() iofs.FileMode { return 0o600 }
func (i memInfo) ModTime() time.Time  { return time.Time{} }
func (i memInfo) IsDir() bool         { return false }
func (i memInfo) Sys() any            { return nil }
