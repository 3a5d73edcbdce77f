package snapshot

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// onlyFile asserts dir holds exactly one entry, name — in particular no
// leftover temporary file.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != name {
		t.Fatalf("directory holds %v, want only %s", ents, name)
	}
}

func TestWriteFileFailureKeepsOldTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(f *os.File) error {
		f.Write([]byte("half a new snap"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback's", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "old" {
		t.Fatalf("target = %q after a failed write, want the old bytes", got)
	}
	onlyFile(t, dir, "g.snap")
}

func TestWriteFileReplacesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.snap")
	for _, payload := range []string{"first", "second, longer than the first"} {
		err := WriteFile(path, func(f *os.File) error {
			if _, err := f.Write([]byte(payload)); err != nil {
				return err
			}
			// The callback may seek back and validate before publishing.
			if _, err := f.Seek(0, 0); err != nil {
				return err
			}
			got := make([]byte, len(payload))
			if _, err := f.Read(got); err != nil || string(got) != payload {
				t.Errorf("read back %q (%v), want %q", got, err, payload)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != payload {
			t.Fatalf("target = %q, want %q", got, payload)
		}
		onlyFile(t, dir, "g.snap")
	}
}

// TestWriteFileNeverTorn rewrites one path repeatedly, in two chunks per
// write, while a reader polls it: every read must be one of the complete
// payloads, never a prefix or a mix.
func TestWriteFileNeverTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.snap")
	payloads := [][]byte{bytes.Repeat([]byte{'a'}, 1<<16), bytes.Repeat([]byte{'b'}, 1<<15)}
	write := func(p []byte) error {
		return WriteFile(path, func(f *os.File) error {
			if _, err := f.Write(p[:len(p)/2]); err != nil {
				return err
			}
			_, err := f.Write(p[len(p)/2:])
			return err
		})
	}
	if err := write(payloads[0]); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("reader: %v", err)
				return
			}
			if !bytes.Equal(got, payloads[0]) && !bytes.Equal(got, payloads[1]) {
				t.Errorf("reader saw %d bytes starting %q: not a complete payload", len(got), got[:1])
				return
			}
		}
	}()
	for i := 1; i <= 50; i++ {
		if err := write(payloads[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
