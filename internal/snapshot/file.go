package snapshot

import (
	"os"
	"path/filepath"
)

// WriteFile publishes path durably and atomically, the one way every
// snapshot, manifest and checkpoint file in the repo reaches disk.
// write fills a temporary file created in path's own directory (so the
// rename never crosses a filesystem); the file is then fsynced, closed and
// renamed over path, and the directory is synced best-effort so the
// rename itself survives a crash. A reader of path sees the old complete
// contents or the new ones, never a prefix and never an unsynced file;
// on any failure the temporary file is removed and path is untouched.
//
// write receives the *os.File rather than an io.Writer so it can seek
// back and validate what it wrote before that becomes visible.
func WriteFile(path string, write func(f *os.File) error) (err error) {
	dir := filepath.Dir(path) // "." for a bare file name
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(f.Name())
		}
	}()
	// CreateTemp's 0600 would make a planner's output unreadable to a
	// daemon running as another user; publish with os.Create's usual mode.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(f.Name(), path); err != nil {
		return err
	}
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync() // best-effort: not every filesystem syncs directories
		d.Close()
	}
	return nil
}
