package db

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.db")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new contents"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new contents" {
		t.Fatalf("file holds %q", got)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", st.Mode().Perm())
	}
	assertNoTemps(t, filepath.Dir(path))
}

// TestWriteFileAtomicFailureKeepsTarget fails the write (after part of
// the data went out) and the rename in turn: the previous file must
// stay byte-identical and no temporary file may remain.
func TestWriteFileAtomicFailureKeepsTarget(t *testing.T) {
	boom := errors.New("injected failure")
	for _, tc := range []struct {
		name   string
		write  func(*os.File, []byte) error
		rename func(string, string) error
	}{
		{name: "write", write: func(f *os.File, data []byte) error {
			if _, err := f.Write(data[:len(data)/2]); err != nil {
				return err
			}
			return boom
		}},
		{name: "rename", rename: func(string, string) error { return boom }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func(w func(*os.File, []byte) error, r func(string, string) error) {
				writeTemp, renameTemp = w, r
			}(writeTemp, renameTemp)
			if tc.write != nil {
				writeTemp = tc.write
			}
			if tc.rename != nil {
				renameTemp = tc.rename
			}
			dir := t.TempDir()
			path := filepath.Join(dir, "d.db")
			old := []byte("previous good database")
			if err := os.WriteFile(path, old, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := WriteFileAtomic(path, []byte("replacement bytes that never land"), 0o644); !errors.Is(err, boom) {
				t.Fatalf("err = %v, want the injected failure", err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, old) {
				t.Fatalf("target changed to %q", got)
			}
			assertNoTemps(t, dir)
		})
	}
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}
