package main

import (
	"bytes"
	"errors"
	iofs "io/fs"
	"os"
	"testing"
)

const appendFlags = os.O_WRONLY | os.O_CREATE | os.O_APPEND

// A file behaves as the journals need it to: appends across mapping
// boundaries read back intact, a truncation drops the tail and the next
// append lands right after it, a rename replaces its target, and a missing
// file is fs.ErrNotExist to errors.Is.
func TestMemFSFileSemantics(t *testing.T) {
	m := newMemFS()
	defer m.Close()
	if _, err := m.ReadFile("/d/j.wal"); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("reading a missing file: %v, want fs.ErrNotExist", err)
	}
	if _, err := m.OpenFile("/d/j.wal", os.O_WRONLY|os.O_APPEND, 0o600); !errors.Is(err, iofs.ErrNotExist) {
		t.Fatalf("opening a missing file without O_CREATE: %v, want fs.ErrNotExist", err)
	}
	f, err := m.OpenFile("/d/j.wal", appendFlags, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	block := bytes.Repeat([]byte("0123456789abcdef"), 40_000) // 640 KB: three writes cross two boundaries
	for i := 0; i < 3; i++ {
		block[0] = byte('A' + i)
		if n, err := f.Write(block); err != nil || n != len(block) {
			t.Fatalf("write %d: n=%d err=%v", i, n, err)
		}
		want = append(want, block...)
	}
	if got, err := m.ReadFile("/d/./j.wal"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read back %d bytes (err %v), want the %d written", len(got), err, len(want))
	}

	cut := int64(memChunk + 7)
	if err := f.Truncate(cut); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(cut + 1); err == nil {
		t.Error("growing a file by truncation succeeded")
	}
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	want = append(want[:cut:cut], "tail"...)
	// A second handle on the same name sees, and appends to, the same file.
	g, err := m.OpenFile("/d/j.wal", appendFlags, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("+more")); err != nil {
		t.Fatal(err)
	}
	want = append(want, "+more"...)
	if got, _ := m.ReadFile("/d/j.wal"); !bytes.Equal(got, want) {
		t.Fatalf("after truncate and append: %d bytes, want %d", len(got), len(want))
	}
	if info, err := m.Stat("/d/j.wal"); err != nil || info.Size() != int64(len(want)) {
		t.Errorf("stat: %v, %v; want size %d", info, err, len(want))
	}

	tmp, err := m.OpenFile("/d/j.tmp", os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("/d/j.tmp", "/d/j.wal"); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.ReadFile("/d/j.wal"); string(got) != "new" {
		t.Errorf("after rename the target reads %q, want \"new\"", got)
	}
	if _, err := m.Stat("/d/j.tmp"); !errors.Is(err, iofs.ErrNotExist) {
		t.Errorf("the renamed-away name still exists: %v", err)
	}
	if err := m.Remove("/d/j.wal"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("/d/j.wal"); !errors.Is(err, iofs.ErrNotExist) {
		t.Errorf("removing twice: %v, want fs.ErrNotExist", err)
	}
	if _, err := m.OpenFile("/d/r", os.O_RDONLY, 0); err == nil {
		t.Error("a read-only open succeeded: reads go through ReadFile")
	}
}
