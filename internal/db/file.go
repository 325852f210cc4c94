package db

import (
	"os"
	"path/filepath"
)

// Test seams for the two steps of WriteFileAtomic that can fail after
// the temporary file exists.
var (
	writeTemp  = func(f *os.File, data []byte) error { _, err := f.Write(data); return err }
	renameTemp = os.Rename
)

// WriteFileAtomic replaces the file at path with data: it writes a
// temporary file in the same directory, syncs and closes it, then
// renames it over path. A crash or error at any step leaves the previous
// file intact (no truncated database), and a failed step leaves no
// temporary file behind. The result has permissions perm.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	err = writeTemp(tmp, data)
	if err == nil {
		err = tmp.Chmod(perm)
	}
	if err == nil {
		// Sync before the rename: without it a host crash can make the
		// rename durable but not the data, leaving a short file at path.
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = renameTemp(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
