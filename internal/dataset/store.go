// Package dataset manages the on-disk layout of the OVH Weather dataset
// reproduction: one file per map per five-minute snapshot, raw SVG alongside
// processed YAML, organized as
//
//	<root>/<map>/<YYYY>/<MM>/<DD>/<HHMM>.<ext>
//
// plus the index, inter-snapshot gap analysis (Figures 2 and 3), the
// file-count and size summaries (Table 2), and the batch processor that
// turns collected SVGs into processed YAMLs with the paper's error
// accounting.
package dataset

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"ovhweather/internal/wmap"
)

// Extensions for the two file populations of the dataset.
const (
	ExtSVG  = "svg"
	ExtYAML = "yaml"
)

// Store is a dataset rooted at a directory.
//
// A Store holds no mutable in-memory state, so every method is safe for
// concurrent use. The one shared medium is the filesystem: WriteSnapshot is
// atomic (temp file + rename within the destination directory), so readers
// never observe a half-written snapshot and concurrent writers of the same
// snapshot resolve to last-writer-wins with no torn files. This invariant is
// what the parallel processing layer (ProcessMapParallel, WalkMapsParallel)
// and any external concurrent readers rely on; race_test.go exercises it.
type Store struct {
	root string
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return &Store{root: dir}, nil
}

// SnapshotPath returns the canonical path of a snapshot file.
func (s *Store) SnapshotPath(id wmap.MapID, at time.Time, ext string) string {
	at = at.UTC()
	return filepath.Join(s.root, string(id),
		fmt.Sprintf("%04d", at.Year()),
		fmt.Sprintf("%02d", int(at.Month())),
		fmt.Sprintf("%02d", at.Day()),
		fmt.Sprintf("%02d%02d.%s", at.Hour(), at.Minute(), ext))
}

// WriteSnapshot stores data atomically: it writes to a temporary file in
// the destination directory and renames it into place, so a crashed or
// concurrent writer never leaves a half-written snapshot visible — the
// failure mode behind some of the paper's unprocessable files.
func (s *Store) WriteSnapshot(id wmap.MapID, at time.Time, ext string, data []byte) error {
	path := s.SnapshotPath(id, at, ext)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("dataset: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dataset: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// ReadSnapshot loads one snapshot file.
func (s *Store) ReadSnapshot(id wmap.MapID, at time.Time, ext string) ([]byte, error) {
	data, err := os.ReadFile(s.SnapshotPath(id, at, ext))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return data, nil
}

// HasSnapshot reports whether the snapshot file exists, without reading it.
// The batch processor uses this for its already-processed skip: a Stat is
// enough, and on a 695k-file dataset re-reading every YAML just to discard
// it would dominate a resumed run.
func (s *Store) HasSnapshot(id wmap.MapID, at time.Time, ext string) bool {
	info, err := os.Stat(s.SnapshotPath(id, at, ext))
	return err == nil && info.Mode().IsRegular()
}

// ReadSnapshotInto is ReadSnapshot reusing buf's capacity, for callers that
// read many snapshots in a loop. It returns the (possibly grown) buffer;
// the data is valid until the next reuse.
func (s *Store) ReadSnapshotInto(buf []byte, id wmap.MapID, at time.Time, ext string) ([]byte, error) {
	f, err := os.Open(s.SnapshotPath(id, at, ext))
	if err != nil {
		return buf[:0], fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf[:0], fmt.Errorf("dataset: %w", err)
		}
	}
}

// Entry describes one indexed snapshot file.
type Entry struct {
	Map  wmap.MapID
	Time time.Time
	Ext  string
	Size int64
	Path string
}

// Index walks the store and returns the entries for one map and extension,
// sorted chronologically. Only snapshot files are stat'ed: a concurrent
// WriteSnapshot may rename its temporary file away between the directory
// listing and any stat of it.
func (s *Store) Index(id wmap.MapID, ext string) ([]Entry, error) {
	base := filepath.Join(s.root, string(id))
	var out []Entry
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) && path == base {
				return filepath.SkipAll
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, "."+ext) {
			return nil
		}
		at, perr := s.parseSnapshotPath(id, path, ext)
		if perr != nil {
			return nil // foreign files are not part of the dataset
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, Entry{Map: id, Time: at, Ext: ext, Size: info.Size(), Path: path})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out, nil
}

// parseSnapshotPath recovers the timestamp encoded in a snapshot path.
func (s *Store) parseSnapshotPath(id wmap.MapID, path, ext string) (time.Time, error) {
	rel, err := filepath.Rel(filepath.Join(s.root, string(id)), path)
	if err != nil {
		return time.Time{}, err
	}
	parts := strings.Split(filepath.ToSlash(rel), "/")
	if len(parts) != 4 {
		return time.Time{}, fmt.Errorf("dataset: unexpected path depth %q", rel)
	}
	stamp := strings.TrimSuffix(parts[3], "."+ext)
	return time.Parse("2006/01/02/1504", strings.Join([]string{parts[0], parts[1], parts[2], stamp}, "/"))
}

// Times returns the snapshot timestamps for one map and extension in
// chronological order.
func (s *Store) Times(id wmap.MapID, ext string) ([]time.Time, error) {
	entries, err := s.Index(id, ext)
	if err != nil {
		return nil, err
	}
	out := make([]time.Time, len(entries))
	for i, e := range entries {
		out[i] = e.Time
	}
	return out, nil
}

// Summary is one Table 2 cell pair: file count and total size.
type Summary struct {
	Files int
	Bytes int64
}

// GiB renders the byte total in binary gigabytes, as Table 2 does.
func (s Summary) GiB() float64 { return float64(s.Bytes) / (1 << 30) }

// Summarize computes Table 2: per map and per extension, the number of
// files and their cumulative size.
func (s *Store) Summarize() (map[wmap.MapID]map[string]Summary, error) {
	out := make(map[wmap.MapID]map[string]Summary)
	for _, id := range wmap.AllMaps() {
		out[id] = make(map[string]Summary)
		for _, ext := range []string{ExtSVG, ExtYAML} {
			entries, err := s.Index(id, ext)
			if err != nil {
				return nil, err
			}
			var sum Summary
			for _, e := range entries {
				sum.Files++
				sum.Bytes += e.Size
			}
			out[id][ext] = sum
		}
	}
	return out, nil
}
